package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
)

// Setup wires observability from CLI flags and installs the global hub.
// Any empty path disables the corresponding output; when all three are
// empty no hub is installed and instrumentation stays at its zero-cost
// disabled path. The returned teardown flushes and closes everything
// (write metrics files, stop the CPU profile, dump the heap profile) and
// must run exactly once, after the workload.
//
//   - metricsOut: Prometheus text exposition is written here at
//     teardown, plus a JSON snapshot next to it with the extension
//     replaced by .json.
//   - traceOut: a JSONL span journal streams here during the run.
//   - pprofDir: cpu.pprof is captured over the whole run and heap.pprof
//     at teardown, both inside this directory (created if missing).
func Setup(metricsOut, traceOut, pprofDir string) (teardown func() error, err error) {
	var closers []func() error
	if metricsOut == "" && traceOut == "" && pprofDir == "" {
		return func() error { return nil }, nil
	}

	hub := New()
	if metricsOut != "" {
		// Metrics are only written at teardown; create the file now so a
		// bad path fails before the workload runs, not after.
		f, err := create(metricsOut)
		if err != nil {
			return nil, fmt.Errorf("obs: metrics out: %w", err)
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	var traceFile *os.File
	if traceOut != "" {
		if traceFile, err = create(traceOut); err != nil {
			return nil, err
		}
		hub.SetTracer(NewTracer(traceFile))
		closers = append(closers, traceFile.Close)
	}

	var cpuFile *os.File
	if pprofDir != "" {
		if err := os.MkdirAll(pprofDir, 0o755); err != nil {
			return nil, fmt.Errorf("obs: pprof dir: %w", err)
		}
		if cpuFile, err = os.Create(filepath.Join(pprofDir, "cpu.pprof")); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("obs: start cpu profile: %w", err)
		}
	}

	prev := SetGlobal(hub)
	return func() error {
		SetGlobal(prev)
		var firstErr error
		keep := func(err error) {
			if firstErr == nil && err != nil {
				firstErr = err
			}
		}
		if cpuFile != nil {
			pprof.StopCPUProfile()
			keep(cpuFile.Close())
			heapFile, err := os.Create(filepath.Join(pprofDir, "heap.pprof"))
			keep(err)
			if err == nil {
				runtime.GC() // settle live-heap accounting before the dump
				keep(pprof.WriteHeapProfile(heapFile))
				keep(heapFile.Close())
			}
		}
		if metricsOut != "" {
			keep(writeMetricsFiles(hub.Registry(), metricsOut))
		}
		for _, c := range closers {
			keep(c())
		}
		return firstErr
	}, nil
}

// writeMetricsFiles writes the Prometheus text exposition to path and
// the JSON snapshot to the sibling path with a .json extension.
func writeMetricsFiles(r *Registry, path string) error {
	f, err := create(path)
	if err != nil {
		return err
	}
	if err := WritePrometheus(f, r); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	jsonPath := strings.TrimSuffix(path, filepath.Ext(path)) + ".json"
	if jsonPath == path {
		jsonPath = path + ".json"
	}
	jf, err := create(jsonPath)
	if err != nil {
		return err
	}
	if err := WriteJSON(jf, r); err != nil {
		jf.Close()
		return err
	}
	return jf.Close()
}

// create makes parent directories as needed and creates the file.
func create(path string) (*os.File, error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return os.Create(path)
}
