// Command sprwl-serve is a long-running serving demo for the sharded lock
// table: a concurrent KV + range-scan service (one skiplist per
// internal/locktable shard) driven by the internal/workload load generator
// with Zipfian key popularity under an open-loop arrival schedule.
//
// Usage:
//
//	sprwl-serve -duration 2s                          # defaults
//	sprwl-serve -rate 50000 -zipf 0.99 -duration 10s  # YCSB skew
//	sprwl-serve -shards 1                             # single-lock baseline
//	sprwl-serve -duration 2s -json report.json        # machine-readable
//
// The open loop schedules arrivals on a fixed timetable and measures each
// op from its scheduled arrival to completion, so queueing delay shows up
// in the reported tails (no coordinated omission). SIGINT/SIGTERM end the
// run early but cleanly: the report still covers everything served. A
// -rate outside (0, 1e9], a percentage outside [0, 100], or -scan plus
// -multi above 100 is an error.
//
// The default rate keeps the reported latencies those of the lock: the
// default 4 workers' arrivals are each about 100 µs apart, so a worker
// yield-spins to its slot instead of sleeping. At lower rates it sleeps,
// and host sleep overshoot (about 1 ms on a loaded host) shows in the
// tails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sprwl/internal/htm"
	"sprwl/internal/locktable"
	"sprwl/internal/memmodel"
	"sprwl/internal/workload"
)

// report is the -json document: the effective configuration plus the run's
// result, one self-describing artifact per run.
type report struct {
	Config struct {
		Shards  int     `json:"shards"`
		Items   int     `json:"items"`
		Workers int     `json:"workers"`
		Rate    float64 `json:"rate_ops_per_sec"`
		Read    int     `json:"read_percent"`
		Scan    int     `json:"scan_percent"`
		Multi   int     `json:"multi_percent"`
		Zipf    float64 `json:"zipf_theta"`
		Seed    uint64  `json:"seed"`
	} `json:"config"`
	Result workload.LoadResult `json:"result"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sprwl-serve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sprwl-serve", flag.ExitOnError)
	var (
		shards   = fs.Int("shards", 0, "lock-table shards (power of two; 0 = 4*GOMAXPROCS, 1 = single-lock baseline)")
		items    = fs.Int("items", 16384, "key-space size (fully populated at startup)")
		workers  = fs.Int("workers", 4, "client goroutines")
		duration = fs.Duration("duration", 5*time.Second, "how long to generate load for")
		rate     = fs.Float64("rate", 40000, "total arrival rate in ops/sec, in (0, 1e9]")
		readPct  = fs.Int("read", 90, "percent of point ops that are Gets")
		scanPct  = fs.Int("scan", 1, "percent of all ops that are whole-table range scans")
		scanSpan = fs.Int("scanspan", 128, "scan length in keys")
		multiPct = fs.Int("multi", 2, "percent of all ops that are multi-key write spans")
		width    = fs.Int("width", 4, "multi-key span width")
		zipf     = fs.Float64("zipf", 0, "key-popularity skew theta (0 = uniform, 0.99 = YCSB)")
		seed     = fs.Uint64("seed", 1, "workload RNG seed")
		jsonPath = fs.String("json", "", "write the latency report as JSON to this file")
		quiet    = fs.Bool("quiet", false, "suppress the human-readable summary")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stop := make(chan struct{})
	loadCfg := workload.LoadConfig{
		Workers:      *workers,
		Duration:     *duration,
		Rate:         *rate,
		ReadPercent:  *readPct,
		ScanPercent:  *scanPct,
		ScanSpan:     *scanSpan,
		MultiPercent: *multiPct,
		MultiWidth:   *width,
		ZipfTheta:    *zipf,
		Seed:         *seed,
		Stop:         stop,
	}
	if err := loadCfg.Validate(); err != nil {
		return err
	}

	kvCfg := workload.KVConfig{
		Table: locktable.Config{Shards: *shards, Threads: *workers},
		Items: *items,
	}
	kvCfg.Validate()
	space, err := htm.NewSpace(htm.Config{Threads: *workers, Words: workload.KVWords(kvCfg)})
	if err != nil {
		return err
	}
	e := htm.NewRuntime(space, nil)
	ar := memmodel.NewArena(0, space.Size())
	kv, err := workload.SetupKV(e, ar, kvCfg, nil)
	if err != nil {
		return err
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "sprwl-serve: signal received, draining")
		close(stop)
	}()

	if !*quiet {
		fmt.Printf("sprwl-serve: %d shards, %d keys, %d workers, zipf %.2f, %.0f ops/s, %v\n",
			kv.Table.Shards(), *items, *workers, *zipf, *rate, *duration)
	}
	res, err := workload.RunLoad(kv, loadCfg)
	if err != nil {
		return err
	}

	if !*quiet {
		fmt.Printf("served %d ops in %v (%.0f ops/s): %d reads, %d writes (%d scans, %d multi-spans)\n",
			res.Ops, res.Elapsed.Round(time.Millisecond), res.ThruOpsS,
			res.Reads, res.Writes, res.Scans, res.Multis)
		if res.Lagged > 0 {
			fmt.Printf("%d arrivals started late (queueing delay included in tails)\n", res.Lagged)
		}
		fmt.Printf("reader latency ns: p50 %d  p99 %d  p999 %d (mean %.0f)\n",
			res.ReaderP50Ns, res.ReaderP99Ns, res.ReaderP999Ns, res.ReaderMeanNs)
		fmt.Printf("writer latency ns: p50 %d  p99 %d  p999 %d (mean %.0f)\n",
			res.WriterP50Ns, res.WriterP99Ns, res.WriterP999Ns, res.WriterMeanNs)
	}

	if *jsonPath != "" {
		var rep report
		rep.Config.Shards = kv.Table.Shards()
		rep.Config.Items = *items
		rep.Config.Workers = *workers
		rep.Config.Rate = *rate
		rep.Config.Read = *readPct
		rep.Config.Scan = *scanPct
		rep.Config.Multi = *multiPct
		rep.Config.Zipf = *zipf
		rep.Config.Seed = *seed
		rep.Result = res
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&rep); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}
