// Command hierminimax trains one algorithm on one workload and prints
// per-snapshot metrics plus the final fairness summary and communication
// totals.
//
// Examples:
//
//	hierminimax -alg hierminimax -dataset emnist -rounds 2000
//	hierminimax -alg drfa -dataset fashion -partition similarity -model mlp
//	hierminimax -alg hierminimax -engine simnet -rounds 200
//
// A run can also be split across real processes connected by TCP: one
// -role cloud process, and per edge area one -role edge and one -role
// client-host process, every one given the same workload flags. Each
// process prints its bound listen address ("<role> listening on ...") so
// ":0" allocations can be scripted:
//
//	hierminimax -role cloud -listen 127.0.0.1:7000 -dataset synthetic -edges 2
//	hierminimax -role edge -edge-index 0 -listen 127.0.0.1:0 -connect 127.0.0.1:7000 -dataset synthetic -edges 2
//	hierminimax -role client-host -edge-index 0 -listen 127.0.0.1:0 -connect <edge addr> -dataset synthetic -edges 2
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/obs"
	"repro/internal/tensor"
)

func main() {
	var spec hierfair.Spec
	var alg, dataset, partition, mdl, engine string

	flag.StringVar(&alg, "alg", "hierminimax", "algorithm: hierminimax|hierfavg|fedavg|afl|drfa")
	flag.StringVar(&dataset, "dataset", "emnist", "dataset: emnist|mnist|fashion|adult|synthetic")
	flag.StringVar(&partition, "partition", "one-class", "partition: one-class|similarity|dirichlet")
	flag.StringVar(&mdl, "model", "logreg", "model: logreg|mlp")
	flag.StringVar(&engine, "engine", "inprocess", "engine: inprocess|simnet (-role splits a run across processes)")
	role := flag.String("role", "", "distributed role: cloud|edge|client-host (default: whole run in this process)")
	listen := flag.String("listen", "", "TCP listen address for -role (\":0\" picks a free port)")
	connect := flag.String("connect", "", "upstream address: the cloud for -role edge, the edge for -role client-host")
	edgeIndex := flag.Int("edge-index", 0, "edge area index for -role edge|client-host")
	flag.Float64Var(&spec.Similarity, "s", 0.5, "similarity fraction for -partition similarity")
	flag.IntVar(&spec.NumEdges, "edges", 10, "number of edge areas N_E")
	flag.IntVar(&spec.ClientsPerEdge, "clients", 3, "clients per edge area N0")
	flag.IntVar(&spec.InputDim, "dim", 784, "feature dimension for image datasets")
	flag.IntVar(&spec.TrainPerClass, "train", 2000, "training examples per class")
	flag.IntVar(&spec.TestPerClass, "test", 150, "test examples per class")
	flag.IntVar(&spec.Rounds, "rounds", 3000, "training rounds K")
	flag.IntVar(&spec.Tau1, "tau1", 2, "local SGD steps per aggregation")
	flag.IntVar(&spec.Tau2, "tau2", 2, "client-edge aggregations per round (hierarchical only)")
	flag.Float64Var(&spec.EtaW, "etaw", 0.002, "model learning rate")
	flag.Float64Var(&spec.EtaP, "etap", 0.0003, "weight learning rate")
	flag.IntVar(&spec.BatchSize, "batch", 4, "local mini-batch size")
	flag.IntVar(&spec.SampledEdges, "me", 5, "sampled edges per round m_E")
	flag.IntVar(&spec.Population, "population", 0, "registered client population for the sparse regime: clients exist as seed records and only sampled cohorts materialize (0 = every client resident; requires -sample-per-round)")
	flag.IntVar(&spec.SamplePerRound, "sample-per-round", 0, "clients sampled per round from -population, split evenly across the sampled edges")
	flag.UintVar(&spec.QuantBits, "quant-bits", 0, "stochastic uniform uplink quantization bits in [1,32] (0 = exact)")
	flag.IntVar(&spec.TopK, "topk", 0, "top-k sparsified uplinks with error feedback: coordinates kept per vector (0 = exact; excludes -quant-bits)")
	flag.Float64Var(&spec.DropoutProb, "dropout", 0, "per-slot dropout probability")
	flag.Float64Var(&spec.PCap, "pcap", 0, "cap for the weight simplex (0 = none)")
	flag.Float64Var(&spec.Chaos.CrashProb, "crash", 0, "per-round client crash probability (simnet)")
	flag.Float64Var(&spec.Chaos.PartitionProb, "partition-prob", 0, "per-round edge partition probability (simnet)")
	flag.Float64Var(&spec.Chaos.LossProb, "loss", 0, "per-transfer message loss probability (simnet)")
	flag.Float64Var(&spec.Chaos.StragglerProb, "straggle", 0, "per-round client straggler probability (simnet)")
	flag.Float64Var(&spec.Chaos.StragglerMs, "straggle-ms", 0, "simulated delay per straggler block, ms (simnet)")
	flag.Float64Var(&spec.Chaos.TimeoutMs, "timeout-ms", 0, "fan-in deadline in simulated ms (0 = 250; simnet)")
	flag.IntVar(&spec.Chaos.MaxRetries, "retries", 0, "retransmissions per lost message (simnet)")
	flag.Uint64Var(&spec.Chaos.Seed, "chaos-seed", 0, "fault-schedule seed (0 = derive from -seed)")
	flag.Uint64Var(&spec.Seed, "seed", 1, "random seed")
	flag.IntVar(&spec.EvalEvery, "eval", 100, "evaluate every this many rounds")
	printKernel := flag.Bool("print-kernel", false, "print the active tensor kernel class and exit")
	saveModel := flag.String("savemodel", "", "write the trained model (gob) to this path")
	metricsOut := flag.String("metrics-out", "", "write Prometheus-text metrics here at exit (plus a .json snapshot beside it)")
	traceOut := flag.String("trace-out", "", "stream a JSONL span trace journal to this path")
	pprofDir := flag.String("pprof", "", "capture cpu.pprof and heap.pprof into this directory")
	flag.Parse()

	if *printKernel {
		// First line: the bare active class. Then the full dispatch
		// ladder, fastest first, with each rung's backing on this machine
		// — off amd64 the avx2f32 tier shows pure-go: selectable and
		// bit-identical, just unaccelerated.
		fmt.Println(tensor.ActiveKernel())
		fmt.Printf("detected: %s\n", tensor.DetectedKernel())
		fmt.Printf("ladder: %s\n", tensor.Ladder())
		return
	}
	// The kernel class is the rounding regime every result below depends
	// on (DESIGN.md §8); print it up front so recorded runs are
	// attributable, and so multi-process logs show at a glance why a
	// mismatched peer was refused by the handshake fingerprint.
	fmt.Printf("kernel class: %s (detected %s, %s override: %s; ladder %s)\n",
		tensor.ActiveKernel(), tensor.DetectedKernel(),
		tensor.KernelEnv, envOr(tensor.KernelEnv, "unset"), tensor.Ladder())

	spec.Algorithm = hierfair.Algorithm(alg)
	spec.Dataset = hierfair.Dataset(dataset)
	spec.Partition = hierfair.Partition(partition)
	spec.Model = hierfair.ModelKind(mdl)
	spec.Engine = hierfair.Engine(engine)

	// Distributed-role flag combinations, rejected with one-line errors
	// before any work starts.
	switch *role {
	case "":
		if *listen != "" || *connect != "" {
			fmt.Fprintf(os.Stderr, "hierminimax: -listen/-connect need -role (want -role cloud|edge|client-host)\n")
			os.Exit(1)
		}
	case "cloud":
		if *listen == "" {
			fmt.Fprintf(os.Stderr, "hierminimax: -role cloud requires -listen\n")
			os.Exit(1)
		}
		if *connect != "" {
			fmt.Fprintf(os.Stderr, "hierminimax: -role cloud takes no -connect (edges dial the cloud)\n")
			os.Exit(1)
		}
	case "edge", "client-host":
		if *listen == "" {
			fmt.Fprintf(os.Stderr, "hierminimax: -role %s requires -listen\n", *role)
			os.Exit(1)
		}
		if *connect == "" {
			upstream := "cloud"
			if *role == "client-host" {
				upstream = "edge"
			}
			fmt.Fprintf(os.Stderr, "hierminimax: -role %s requires -connect (the %s address)\n", *role, upstream)
			os.Exit(1)
		}
		if *edgeIndex < 0 {
			fmt.Fprintf(os.Stderr, "hierminimax: -edge-index %d negative (want the served edge area)\n", *edgeIndex)
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "hierminimax: unknown role %q (want cloud|edge|client-host)\n", *role)
		os.Exit(1)
	}

	obsDone, err := obs.Setup(*metricsOut, *traceOut, *pprofDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hierminimax:", err)
		os.Exit(1)
	}
	// fail flushes observability outputs before exiting on an error path
	// (os.Exit skips defers).
	fail := func(err error) {
		obsDone()
		fmt.Fprintln(os.Stderr, "hierminimax:", err)
		os.Exit(1)
	}

	announce := func(addr string) { fmt.Printf("%s listening on %s\n", *role, addr) }
	var rep *hierfair.Report
	switch *role {
	case "cloud":
		spec.Engine = hierfair.EngineSimNet
		rep, err = hierfair.RunCloud(spec, hierfair.DistConfig{Listen: *listen, Started: announce})
	case "edge", "client-host":
		dist := hierfair.DistConfig{Listen: *listen, Connect: *connect, Edge: *edgeIndex, Started: announce}
		if *role == "edge" {
			err = hierfair.RunEdge(spec, dist)
		} else {
			err = hierfair.RunClientHost(spec, dist)
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("%s %d: run complete\n", *role, *edgeIndex)
		if err := obsDone(); err != nil {
			fmt.Fprintln(os.Stderr, "hierminimax: observability teardown:", err)
			os.Exit(1)
		}
		return
	default:
		rep, err = hierfair.Run(spec)
	}
	if err != nil {
		fail(err)
	}
	fmt.Printf("%8s %12s %9s %9s %10s\n", "round", "cloudRounds", "average", "worst", "variance")
	for _, p := range rep.History {
		fmt.Printf("%8d %12d %9.4f %9.4f %10.4f\n", p.Round, p.CloudRounds, p.Average, p.Worst, p.Variance)
	}
	fmt.Println()
	fmt.Println(rep.Summary())
	fmt.Printf("edge weights p: %v\n", fmtWeights(rep.EdgeWeights))
	fmt.Printf("traffic: cloud %.2f MB, total %.2f MB\n", float64(rep.CloudBytes)/1e6, float64(rep.TotalBytes)/1e6)
	if spec.Engine == hierfair.EngineSimNet {
		fmt.Printf("simnet: %d messages (+%d control), simulated %.1f s\n",
			rep.MessagesSent, rep.ControlMessages, rep.SimulatedMs/1000)
		fmt.Printf("simnet pool: %d payload vectors allocated, %d recycled\n",
			rep.PoolAllocated, rep.PoolRecycled)
		if rep.MessagesLost+rep.Timeouts+rep.Retries+rep.Crashes > 0 {
			fmt.Printf("simnet faults: %d messages lost, %d timeouts, %d retries, %d client crashes\n",
				rep.MessagesLost, rep.Timeouts, rep.Retries, rep.Crashes)
		}
	}
	if *saveModel != "" {
		f, err := os.Create(*saveModel)
		if err != nil {
			fail(err)
		}
		if err := rep.SaveModel(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("model written to %s\n", *saveModel)
	}
	if err := obsDone(); err != nil {
		fmt.Fprintln(os.Stderr, "hierminimax: observability teardown:", err)
		os.Exit(1)
	}
	if *metricsOut != "" {
		fmt.Printf("metrics written to %s\n", *metricsOut)
	}
	if *traceOut != "" {
		fmt.Printf("trace journal written to %s\n", *traceOut)
	}
	if *pprofDir != "" {
		fmt.Printf("profiles written to %s\n", *pprofDir)
	}
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func fmtWeights(p []float64) string {
	out := "["
	for i, v := range p {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.3f", v)
	}
	return out + "]"
}
