package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of ../BENCHMARK.json the repeatability check
// reads: each end-to-end metric's direction and bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA runs two interleaved sets (A, B, A, B, ...) of n untraced runs of
// this same binary per workload, every run with another seed, and compares
// the sets: per workload and end-to-end metric it prints both medians, each
// set's quartile spread as a share of its median, and how much worse B's
// median is than A's, against the metric's bound. Same code on both sides,
// so any difference is noise; it fails if one exceeds its bound.
func runAA(cfg config, n int) error {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	workloads := workloadNames
	if cfg.workload != "all" {
		workloads = []string{cfg.workload}
	}
	fmt.Printf("| workload | metric | median A | spread A | median B | spread B | B worse by | bound |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|\n")
	exceeded := 0
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatInt(cfg.seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-tmp", cfg.tmp)
			var out bytes.Buffer
			cmd.Stdout = &out
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s run %d: %w", w, i, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s run %d: %w", w, i, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s run %d (seed %d): %d of %d statements failed", w, i, cfg.seed+int64(i), res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				sets[i%2][name] = append(sets[i%2][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "aa: %s run %d/%d done\n", w, i+1, 2*n)
		}
		for _, e := range bf.EndToEnd {
			a, b := sets[0][e.Name], sets[1][e.Name]
			a1, am, a3 := quartiles(a)
			b1, bm, b3 := quartiles(b)
			worse := (bm - am) / am
			if e.Better == "higher" {
				worse = -worse
			}
			flag := ""
			if worse > e.Bound {
				flag = " EXCEEDED"
				exceeded++
			}
			fmt.Printf("| %s | %s | %.5g | %.2f%% | %.5g | %.2f%% | %+.2f%% | %.0f%%%s |\n",
				w, e.Name, am, 100*(a3-a1)/am, bm, 100*(b3-b1)/bm, 100*worse, 100*e.Bound, flag)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d differences between two sets of runs of the same code exceed their bound", exceeded)
	}
	return nil
}
