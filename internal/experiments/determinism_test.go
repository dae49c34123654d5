package experiments

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/tensor"
)

// pinnedDigests holds, per rounding regime, the numeric digest of every
// experiment at Smoke scale and seed 42.
var pinnedDigests = map[tensor.KernelClass]map[string]uint64{
	tensor.KernelGeneric: {
		"fig3":         0x0fc45ca6a0819c07,
		"fig4":         0xfd6a88f347efe425,
		"table2":       0x88de28b314fc8d06,
		"table1":       0xff96b90ea626957a,
		"rates":        0x42ec9068b0f03afd,
		"stationarity": 0x5dd4a0d940506617,
		"ablations":    0x51493cf7209f6909,
		"chaos":        0x716ade61110a2a3c,
		"compression":  0x3ac8b69f947d861d,
	},
	tensor.KernelAVX2: {
		"fig3":         0x0fc45ca6a0819c07,
		"fig4":         0xfd6a88f347efe425,
		"table2":       0x88de28b314fc8d06,
		"table1":       0xf51095a17dd4e866,
		"rates":        0x755a00c551e7a6be,
		"stationarity": 0x87e6687aa7b28fbe,
		"ablations":    0x51493cf7209f6909,
		"chaos":        0x716ade61110a2a3c,
		"compression":  0x3ac8b69f947d861d,
	},
}

// regimeDigests returns the pinned digests of the active class's rounding
// regime (sse2 shares generic's, avx2f32 avx2's), or nil when none are
// pinned.
func regimeDigests() map[string]uint64 {
	switch c := tensor.ActiveKernel(); c {
	case tensor.KernelSSE2:
		return pinnedDigests[tensor.KernelGeneric]
	case tensor.KernelAVX2F32:
		return pinnedDigests[tensor.KernelAVX2]
	default:
		return pinnedDigests[c]
	}
}

// numericDigest is FNV-64a over the sorted, deduplicated float64 bit
// patterns of vals: it depends on which numbers an experiment publishes,
// not on where its layout puts them or how often it repeats one.
func numericDigest(vals []float64) uint64 {
	bits := make([]uint64, len(vals))
	for i, v := range vals {
		bits[i] = math.Float64bits(v)
	}
	sort.Slice(bits, func(i, j int) bool { return bits[i] < bits[j] })
	h := fnv.New64a()
	var buf [8]byte
	for i, b := range bits {
		if i > 0 && b == bits[i-1] {
			continue
		}
		binary.LittleEndian.PutUint64(buf[:], b)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// published lists every number the tables publish, derived values
// included; string keys are left out.
func published(tables []*Table) []float64 {
	var v []float64
	for _, t := range tables {
		for _, r := range t.Rows {
			v = append(v, r.Vals...)
		}
	}
	return v
}

// snapshotArtifact captures everything an experiment publishes: the
// rendered text plus the exact bytes of every exported file (CSV, JSON,
// SVG).
func snapshotArtifact(t *testing.T, tables []*Table) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	var render bytes.Buffer
	if err := Export(tables, &render, dir, Smoke); err != nil {
		t.Fatal(err)
	}
	snap := map[string][]byte{"render.txt": render.Bytes()}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		snap[e.Name()] = b
	}
	return snap
}

// committedCSVs lists the recorded reproduction's CSV files by table
// name.
func committedCSVs(t *testing.T) map[string]string {
	t.Helper()
	paths, err := filepath.Glob("../../artifacts/*-small.csv")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, p := range paths {
		out[strings.TrimSuffix(filepath.Base(p), "-small.csv")] = p
	}
	return out
}

// TestArtifactsIdenticalAcrossWorkerCounts is the scheduler's ordering
// contract, end to end: every experiment artifact — CSV bytes, manifest
// JSON, rendered tables, SVG panels — is bitwise identical whether the
// sweep runs sequentially (-jobs 1), on 4 workers, or on an
// intentionally awkward 13 workers. The chaos sweep is included, so the
// contract holds under fault injection too, and so is the compression
// sweep, both legs. The sequential run's numbers must also match the
// digest pinned for the active rounding regime, and the header of every
// table must equal the one its committed artifacts/<name>-small.csv
// carries, with no committed CSV left over.
func TestArtifactsIdenticalAcrossWorkerCounts(t *testing.T) {
	workerCounts := []int{1, 4, 13}
	pinned := regimeDigests()
	committed := committedCSVs(t)
	ran := 0
	for _, e := range Experiments {
		t.Run(e.Name, func(t *testing.T) {
			var ref map[string][]byte
			for _, workers := range workerCounts {
				var tables []*Table
				var err error
				if workers == 1 {
					tables, err = smokeRun(e) // the nil inline path, shared with the shape tests
				} else {
					tables, err = e.Run(sched.New(workers), Smoke, 42)
				}
				if err != nil {
					t.Fatalf("jobs=%d: %v", workers, err)
				}
				snap := snapshotArtifact(t, tables)
				if ref == nil {
					got := numericDigest(published(tables))
					if want, ok := pinned[e.Name]; pinned != nil && (!ok || got != want) {
						t.Errorf("numeric digest %#016x, pinned %#016x (kernel class %s)", got, want, tensor.ActiveKernel())
					}
					for _, tab := range tables {
						path, ok := committed[tab.Name]
						if !ok {
							t.Errorf("no committed artifacts/%s-small.csv", tab.Name)
							continue
						}
						delete(committed, tab.Name)
						if got := readCSV(t, path)[0]; !slices.Equal(got, tab.header()) {
							t.Errorf("%s header %v, table declares %v", path, got, tab.header())
						}
					}
					ref = snap
					continue
				}
				if len(snap) != len(ref) {
					t.Fatalf("jobs=%d produced %d files, sequential produced %d", workers, len(snap), len(ref))
				}
				for name, want := range ref {
					got, ok := snap[name]
					if !ok {
						t.Fatalf("jobs=%d missing artifact %s", workers, name)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("artifact %s differs between -jobs 1 and -jobs %d (%d vs %d bytes)", name, workers, len(want), len(got))
					}
				}
			}
			ran++
		})
	}
	if ran == len(Experiments) {
		for name := range committed {
			t.Errorf("artifacts/%s-small.csv matches no experiment table", name)
		}
	}
}
