package colstore

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"vectorwise/internal/bufmgr"
	"vectorwise/internal/compress"
	"vectorwise/internal/datagen"
	"vectorwise/internal/fsim"
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// groupChunks serves a table's frames as buffer-pool chunks, and pooled
// fetches them back through an LRU pool: the engine's scan share in small.
type groupChunks struct{ t *Table }

func (s groupChunks) NumChunks() int { return s.t.NumBlocks() }
func (s groupChunks) ReadChunk(_ context.Context, id int) ([]byte, error) {
	return s.t.EncodeGroup(id)
}

type pooled struct{ pool *bufmgr.LRUPool }

func (p pooled) FetchGroup(ctx context.Context, g int) ([]byte, error) { return p.pool.Get(ctx, g) }

func newPooled(t *Table, capacity int) pooled {
	return pooled{bufmgr.NewLRUPool(groupChunks{t}, capacity)}
}

// mixedRows generates rows of testSchema that make the codecs disagree from
// group to group: full-range and clustered integers, NaN and negative zero,
// dictionary-friendly and all-distinct strings, runs of booleans.
func mixedRows(n int) [][]types.Value {
	rng := rand.New(rand.NewSource(11))
	rows := make([][]types.Value, n)
	for r := range rows {
		g := r / BlockRows
		id := int64(r) * 3
		if g%2 == 1 {
			id = int64(rng.Uint64())
		}
		price := float64(rng.Intn(1000)) / 4
		switch rng.Intn(50) {
		case 0:
			price = math.NaN()
		case 1:
			price = math.Copysign(0, -1)
		case 2:
			price = -math.MaxFloat64
		}
		mode := []string{"AIR", "RAIL", "", "SHIP"}[rng.Intn(4)]
		if g == 1 {
			mode = fmt.Sprintf("unique value %d of group one", r)
		}
		rows[r] = []types.Value{
			types.NewInt64(id),
			types.NewInt32(int32(rng.Intn(1<<(1+g*9))) - 100),
			types.NewFloat64(price),
			types.NewString(mode),
			types.NewDate(int32(9000 + r/64)),
			types.NewBool(r/1000%2 == 0),
		}
	}
	return rows
}

func tableOf(t testing.TB, schema *types.Schema, rows [][]types.Value) *Table {
	t.Helper()
	tab := NewTable(schema)
	ap := tab.NewAppender()
	for _, row := range rows {
		if err := ap.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := ap.Close(); err != nil {
		t.Fatal(err)
	}
	return tab
}

// checkScan drains a scan of every column, through src when it is not nil,
// and holds each value to the rows that were appended.
func checkScan(t *testing.T, tab *Table, src BlockSource, rows [][]types.Value) {
	t.Helper()
	cols := make([]int, tab.Schema().Len())
	for i := range cols {
		cols[i] = i
	}
	sc, err := tab.NewScanner(cols, 1000) // not a divisor of BlockRows
	if err != nil {
		t.Fatal(err)
	}
	if src != nil {
		sc.SetBlockSource(context.Background(), src)
	}
	b := vec.NewBatch(sc.Kinds(), 0)
	at := 0
	for {
		start, n, done, err := sc.Next(b)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if start != int64(at) {
			t.Fatalf("batch starts at %d, want %d", start, at)
		}
		for k := 0; k < n; k++ {
			for c, want := range rows[at+k] {
				got := b.Vecs[c].Get(k)
				same := types.Compare(got, want) == 0
				if want.Kind == types.KindFloat64 {
					same = math.Float64bits(got.F64) == math.Float64bits(want.F64)
				}
				if !same {
					t.Fatalf("row %d column %d = %v, want %v", at+k, c, got, want)
				}
			}
		}
		at += n
	}
	if at != len(rows) {
		t.Fatalf("scanned %d rows, want %d", at, len(rows))
	}
}

// checkFrames: every block's bytes live inside its group's frame, and
// EncodeGroup hands out that frame itself, not a copy.
func checkFrames(t *testing.T, tab *Table) {
	t.Helper()
	for g := 0; g < tab.NumBlocks(); g++ {
		frame, err := tab.EncodeGroup(g)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := tab.EncodeGroup(g)
		if unsafe.SliceData(frame) != unsafe.SliceData(again) || len(frame) != len(again) {
			t.Fatalf("group %d: EncodeGroup returned two different slices", g)
		}
		payloads, err := DecodeGroupPayloads(frame, len(tab.cols))
		if err != nil {
			t.Fatal(err)
		}
		for c := range tab.cols {
			data := tab.cols[c].Blocks[g].Data
			if unsafe.SliceData(data) != unsafe.SliceData(payloads[c]) || len(data) != len(payloads[c]) {
				t.Fatalf("group %d column %d: Block.Data is not its section of the frame", g, c)
			}
		}
	}
}

// A scan through an LRU pool ≡ a direct scan ≡ the appended rows, for every
// kind, with a partial last group — and again after a save and a load, which
// rebuilds the frames.
func TestScanPooledDirectAndReloadedAgree(t *testing.T) {
	rows := mixedRows(2*BlockRows + 4321)
	tab := tableOf(t, testSchema(), rows)
	if tab.NumBlocks() != 3 {
		t.Fatalf("%d row groups, want 3", tab.NumBlocks())
	}
	mem := fsim.NewMemFS()
	if err := tab.SaveFS(mem, "t.vwt"); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFS(mem, "t.vwt")
	if err != nil {
		t.Fatal(err)
	}
	for name, tb := range map[string]*Table{"appended": tab, "loaded": loaded} {
		t.Run(name, func(t *testing.T) {
			checkFrames(t, tb)
			checkScan(t, tb, nil, rows)
			checkScan(t, tb, newPooled(tb, 1), rows) // every group a miss and an eviction
			warm := newPooled(tb, 8)
			checkScan(t, tb, warm, rows)
			checkScan(t, tb, warm, rows) // every group a hit
		})
	}
}

// A block that decodes to the right number of rows but leaves bytes over, or
// to a different number of rows, is corruption.
func TestDecodeBlockRejectsWrongShape(t *testing.T) {
	tab := fillTable(t, 100)
	for c := range tab.cols {
		kind := tab.cols[c].Type.Kind
		blk := tab.cols[c].Blocks[0]
		dst := vec.New(kind, BlockRows)
		var strs compress.StringDecoder
		if err := decodeBlock(kind, blk.Data, blk.Rows, dst, &strs); err != nil {
			t.Fatalf("column %d: %v", c, err)
		}
		if err := decodeBlock(kind, append(append([]byte(nil), blk.Data...), 0), blk.Rows, dst, &strs); err == nil {
			t.Errorf("column %d: trailing byte accepted", c)
		}
		if err := decodeBlock(kind, blk.Data, blk.Rows+1, dst, &strs); err == nil {
			t.Errorf("column %d: wrong row count accepted", c)
		}
	}
}

// lineitemTable builds the benchmark's wide table: the eleven lineitem
// columns plus the indicator column NULL decomposition adds.
func lineitemTable(t testing.TB, groups int) *Table {
	t.Helper()
	schema := datagen.LineitemSchema().Clone()
	schema.Cols[10].Type.Nullable = false
	schema.Cols = append(schema.Cols, types.Col("l_comment$null", types.Bool))
	tab := NewTable(schema)
	ap := tab.NewAppender()
	sf := (float64(groups*BlockRows) + 0.5) / datagen.RowsPerSF
	err := datagen.Lineitems(sf, 1, func(row []types.Value) error {
		null := row[10].Null
		if null {
			row[10] = types.NewString("")
		}
		return ap.AppendRow(append(row[:11:11], types.NewBool(null)))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ap.Close(); err != nil {
		t.Fatal(err)
	}
	return tab
}

var scanProjections = []struct {
	name string
	cols []int
}{
	{"c1", []int{2}},
	{"c3", []int{2, 3, 8}},
	{"c11", []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
}

// After its first group a scanner allocates nothing per further group over
// numeric columns and at most the block's one text string (plus, rarely, a
// grown dictionary) over a string column — through a pool or not. Counts,
// so the guard is steady on any machine.
func TestScannerSteadyStateAllocations(t *testing.T) {
	tab := lineitemTable(t, 4)
	schema := tab.Schema()
	for _, direct := range []bool{true, false} {
		for c := 0; c < schema.Len(); c++ {
			sc, err := tab.NewMorselScanner([]int{c}, vec.DefaultSize)
			if err != nil {
				t.Fatal(err)
			}
			if !direct {
				sc.SetBlockSource(context.Background(), newPooled(tab, tab.NumBlocks()))
			}
			b := vec.NewBatch(sc.Kinds(), 0)
			g := 0
			group := func() {
				sc.SeekGroup(g % tab.NumBlocks())
				g++
				for {
					_, _, done, err := sc.Next(b)
					if err != nil {
						t.Fatal(err)
					}
					if done {
						return
					}
				}
			}
			for range tab.NumBlocks() { // first groups: scratch grows, the pool warms
				group()
			}
			limit := 0.0
			if schema.Cols[c].Type.Kind == types.KindString {
				limit = 2
			}
			if a := testing.AllocsPerRun(20, group); a > limit {
				t.Errorf("direct=%v column %s: %v allocations per group, want <= %v",
					direct, schema.Cols[c].Name, a, limit)
			}
		}
	}
}

// BenchmarkScanGroups drains full scans of the wide table at the three
// widths the benchmark's probes use; MB/s reads as Mrows/s.
func BenchmarkScanGroups(b *testing.B) {
	tab := lineitemTable(b, 8)
	for _, p := range scanProjections {
		for _, mode := range []string{"direct", "pool"} {
			b.Run(p.name+"/"+mode, func(b *testing.B) {
				var src BlockSource
				if mode == "pool" {
					src = newPooled(tab, 3) // smaller than the table: every group a miss
				}
				b.SetBytes(tab.Rows())
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sc, err := tab.NewScanner(p.cols, vec.DefaultSize)
					if err != nil {
						b.Fatal(err)
					}
					if src != nil {
						sc.SetBlockSource(context.Background(), src)
					}
					batch := vec.NewBatch(sc.Kinds(), 0)
					for {
						_, _, done, err := sc.Next(batch)
						if err != nil {
							b.Fatal(err)
						}
						if done {
							break
						}
					}
				}
			})
		}
	}
}

// FuzzDecodeGroupPayloads hands a scanner arbitrary bytes as a group frame:
// splitting and decoding them may fail, but must not panic, and what the
// split returns must tile the frame.
func FuzzDecodeGroupPayloads(f *testing.F) {
	rows := mixedRows(300)
	tab := tableOf(f, testSchema(), rows)
	frame, err := tab.EncodeGroup(0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	f.Add(frame[:len(frame)/2])
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	ncols := tab.Schema().Len()
	cols := make([]int, ncols)
	for i := range cols {
		cols[i] = i
	}
	// One scanner for every input, re-seeked: a failed group must leave it
	// usable, as a morsel worker's is after a corrupt group.
	sc, err := tab.NewMorselScanner(cols, 128)
	if err != nil {
		f.Fatal(err)
	}
	b := vec.NewBatch(sc.Kinds(), 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, err := DecodeGroupPayloads(data, ncols)
		if err == nil {
			total := 0
			for _, p := range payloads {
				total += len(p)
			}
			if len(payloads) != ncols || total > len(data) {
				t.Fatalf("%d payloads of %d bytes from a %d-byte frame", len(payloads), total, len(data))
			}
		}
		if err := sc.SeekGroupData(0, data); err != nil {
			return
		}
		for {
			_, n, done, err := sc.Next(b)
			if err != nil || done {
				return
			}
			for _, v := range b.Vecs {
				for k := 0; k < n; k++ {
					v.Get(k) // every decoded value must be readable
				}
			}
		}
	})
}
