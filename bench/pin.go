package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask of 1024 CPUs.
type cpuMask [16]uint64

// pinToOneCPU confines every thread of this process to one CPU, the highest
// it is allowed to run on. Threads and processes started afterwards inherit
// the mask, so a vwserver child started after this call shares that one core
// with its client (and, seeing one CPU, runs with GOMAXPROCS=1).
//
// wire_short needs it: client and server take turns, and when they sit on two
// virtual CPUs every statement wakes an idle one twice. What that wake-up
// costs depends on the host, not on the program: on the sandbox it moved
// stmts_per_s between 580 and 920 from one minute to the next, while runs
// pinned to one core in the same minutes stayed within 700 to 940.
func pinToOneCPU() error {
	var allowed cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
		return fmt.Errorf("sched_getaffinity: %w", e)
	}
	cpu := -1
	for i := range allowed {
		for b := 0; b < 64; b++ {
			if allowed[i]&(1<<b) != 0 {
				cpu = i*64 + b
			}
		}
	}
	if cpu < 0 {
		return fmt.Errorf("sched_getaffinity: empty mask")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	// Two passes: a thread the runtime started during the first pass, from a
	// thread not yet pinned, is caught by the second.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one)))
			if e != 0 && e != syscall.ESRCH { // ESRCH: the thread has exited
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, e)
			}
		}
	}
	return nil
}
