// Package deadcode is a test-only gate: it fails when a non-test
// declaration of the repro module is reached by no main package, no
// other package's test, no benchmark-module code and no allowlist
// entry. Delete what it reports, or move it into the _test.go file of
// the package whose tests still need it.
package deadcode

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// allowlist holds the declarations kept without a reaching reference.
// It names only API that exists for code outside this repository and
// test support; anything else it reports is deleted, not listed here.
var allowlist = []string{
	// The root package is the library facade; README documents its
	// exported API (hierfair.Run, hierfair.LoadModel, ...) for callers
	// outside this repository.
	"repro.[A-Z]*",
	"repro.[A-Z]*.[A-Z]*",
	// Test support: shared fixtures for the packages' tests, and the
	// in-process loopback topology the wire parity tests drive.
	"repro/internal/fl/fltest.*",
	"repro/internal/simnet.RunWireLoopback",
}

func TestNoUnreachedDeclarations(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "benchmark", "go.mod")); err != nil {
		t.Fatalf("benchmark module not found: %v", err)
	}
	found, err := unreached(root, []string{filepath.Join(root, "benchmark")}, allowlist)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) == 0 {
		return
	}
	var b strings.Builder
	total := 0
	for _, f := range found {
		b.WriteString("\n\t" + f.String())
		total += f.lines
	}
	t.Errorf("%d declarations (%d lines) are reached by nothing; delete them, or move them into the _test.go of the only package that uses them:%s",
		len(found), total, b.String())
}

// TestAnalyzerFixture runs the analyzer on a module built to hold one
// case per rule.
func TestAnalyzerFixture(t *testing.T) {
	found, err := unreached(filepath.Join("testdata", "fixture"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, f := range found {
		got[f.name] = f.String()
	}
	want := map[string]string{
		"lib.deadHead":         "lib/lib.go:11 lib.deadHead (2 lines)", // a dead chain ...
		"lib.deadTail":         "lib/lib.go:14 lib.deadTail (1 lines)",
		"lib.OwnTestOnly":      "lib/lib.go:16 lib.OwnTestOnly (2 lines)",      // named by its own package's tests only
		"lib.Shape.Perimeter":  "lib/lib.go:25 lib.Shape.Perimeter (1 lines)",  // an interface method nobody calls ...
		"lib.Square.Perimeter": "lib/lib.go:34 lib.Square.Perimeter (2 lines)", // ... and its implementation
	}
	for name, line := range want {
		if got[name] != line {
			t.Errorf("want %q flagged, got %q", line, got[name])
		}
	}
	// Kept: lib.OtherTestOnly (another package's test), Square.Area
	// (interface dispatch), Stamp.String and Blob.MarshalBinary (std
	// interfaces), archShared (named from the !amd64 file only).
	for name, line := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("unexpectedly flagged: %s", line)
		}
	}
}
