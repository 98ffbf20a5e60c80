// Command ftperf probes the resource manager's control-plane
// performance and writes a machine-readable report, so the repo's perf
// trajectory can be tracked run over run (`make bench` emits
// BENCH_rm.json).
//
// Three probes run against in-process RMs through the public API:
//
//   - confirm throughput without a store: tick + heartbeat cycles over a
//     many-job workload, counting confirmed quanta per second — the hot
//     submit/confirm path with durability off.
//   - confirm throughput with a WAL under the group-committed
//     always-fsync policy, plus fsync latency percentiles — what
//     durability costs the same path.
//   - recovery: the state directory the durable probe produced is
//     reopened and the snapshot+WAL replay timed.
//
// Usage:
//
//	ftperf [-out BENCH_rm.json] [-duration 2s] [-jobs 64]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"flowtime/internal/metrics"
	"flowtime/internal/rmproto"
	"flowtime/internal/rmserver"
	"flowtime/internal/sched"
	"flowtime/internal/store"
	"flowtime/internal/trace"
)

type report struct {
	Timestamp  string `json:"timestamp"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Jobs       int    `json:"jobs"`
	DurationMS int64  `json:"probe_duration_ms"`

	// Confirm throughput (quanta confirmed per second through full
	// tick+heartbeat cycles), without and with a WAL.
	ConfirmPerSec        float64 `json:"confirm_per_sec"`
	ConfirmPerSecDurable float64 `json:"confirm_per_sec_durable"`
	// WAL cost on the durable probe.
	WALRecords     int64   `json:"wal_records"`
	WALBytes       int64   `json:"wal_bytes"`
	Fsyncs         int64   `json:"fsyncs"`
	FsyncP50Micros int64   `json:"fsync_p50_micros"`
	FsyncP99Micros int64   `json:"fsync_p99_micros"`
	FsyncMaxMicros int64   `json:"fsync_max_micros"`
	WALBytesPerSec float64 `json:"wal_bytes_per_sec"`

	// Recovery of the durable probe's state directory.
	RecoveryRecords int   `json:"recovery_records_replayed"`
	RecoveryMicros  int64 `json:"recovery_micros"`
	RecoveredJobs   int   `json:"recovered_jobs"`
}

func main() {
	log.SetFlags(0)
	out := flag.String("out", "BENCH_rm.json", "output path for the JSON report")
	lpOut := flag.String("lpout", "BENCH_lp.json", "output path for the planner (flow vs. reference simplex) report (empty to skip)")
	overloadOut := flag.String("overloadout", "BENCH_overload.json", "output path for the overload probe report (empty to skip)")
	simOut := flag.String("simout", "BENCH_sim.json", "output path for the simulator probe report (empty to skip)")
	adhocOut := flag.String("adhocout", "BENCH_adhoc.json", "output path for the ad-hoc admission probe report (empty to skip)")
	dur := flag.Duration("duration", 2*time.Second, "wall-clock budget per throughput probe")
	jobs := flag.Int("jobs", 64, "concurrent ad-hoc jobs per probe")
	lpIters := flag.Int("lpiters", 5, "reference-simplex LexMinMax calls per small instance size in the planner probe (the flow arm never runs fewer than 5)")
	lpGuardOn := flag.Bool("lp-guard", false, "fail (exit 1) when the planner probe regresses: at 200x150 the flow planner's and the reference simplex's levels must agree per slot; at 5kx1k a flow replan must stay under 1 s")
	simMachines := flag.Int("sim-machines", 10000, "machine count for the simulator probe")
	simDays := flag.Int("sim-days", 3, "simulated days for the simulator probe")
	flag.Parse()

	rep := report{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Jobs:       *jobs,
		DurationMS: dur.Milliseconds(),
	}

	var err error
	if rep.ConfirmPerSec, err = confirmProbe(nil, *jobs, *dur, &rep); err != nil {
		log.Fatalf("ftperf: in-memory probe: %v", err)
	}

	dir, err := os.MkdirTemp("", "ftperf-state-")
	if err != nil {
		log.Fatalf("ftperf: %v", err)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(store.Options{Dir: dir, Policy: store.SyncAlways})
	if err != nil {
		log.Fatalf("ftperf: %v", err)
	}
	if rep.ConfirmPerSecDurable, err = confirmProbe(st, *jobs, *dur, &rep); err != nil {
		log.Fatalf("ftperf: durable probe: %v", err)
	}
	lat := st.FsyncLatencies()
	stats := metrics.Describe(lat)
	s := st.Stats()
	rep.WALRecords = s.WALRecords
	rep.WALBytes = s.WALBytes
	rep.Fsyncs = s.Fsyncs
	rep.FsyncP50Micros = stats.P50.Microseconds()
	rep.FsyncP99Micros = stats.P99.Microseconds()
	rep.FsyncMaxMicros = s.FsyncMax.Microseconds()
	rep.WALBytesPerSec = float64(s.WALBytes) / dur.Seconds()
	if err := st.Close(); err != nil {
		log.Fatalf("ftperf: close store: %v", err)
	}

	// Recovery probe: reopen the directory the durable probe wrote.
	st2, err := store.Open(store.Options{Dir: dir, Policy: store.SyncAlways})
	if err != nil {
		log.Fatalf("ftperf: reopen store: %v", err)
	}
	rm, err := rmserver.New(rmserver.Config{SlotDur: time.Second, Scheduler: sched.NewFIFO(), Store: st2})
	if err != nil {
		log.Fatalf("ftperf: recover: %v", err)
	}
	if rec := rm.Recovery(); rec != nil {
		rep.RecoveryRecords = rec.RecordsReplayed
		rep.RecoveryMicros = rec.Micros
	}
	rep.RecoveredJobs = len(rm.Status().Jobs)
	st2.Close()

	data, _ := json.MarshalIndent(&rep, "", "  ")
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatalf("ftperf: %v", err)
	}
	fmt.Printf("ftperf: wrote %s\n%s", filepath.Clean(*out), data)

	if *lpOut != "" {
		lrep, err := lpProbe(*lpIters)
		if err != nil {
			log.Fatalf("ftperf: lp probe: %v", err)
		}
		lrep.Timestamp = rep.Timestamp
		lrep.GoVersion = rep.GoVersion
		lrep.GOOS = rep.GOOS
		lrep.GOARCH = rep.GOARCH
		ldata, _ := json.MarshalIndent(&lrep, "", "  ")
		ldata = append(ldata, '\n')
		if err := os.WriteFile(*lpOut, ldata, 0o644); err != nil {
			log.Fatalf("ftperf: %v", err)
		}
		fmt.Printf("ftperf: wrote %s\n%s", filepath.Clean(*lpOut), ldata)
		if *lpGuardOn {
			if fails := lpGuard(lrep); len(fails) > 0 {
				for _, f := range fails {
					log.Print("ftperf: ", f)
				}
				log.Fatalf("ftperf: lp-guard: %d regression(s)", len(fails))
			}
			fmt.Println("ftperf: lp-guard passed")
		}
	}

	if *overloadOut != "" {
		orep, err := overloadProbe(*dur)
		if err != nil {
			log.Fatalf("ftperf: overload probe: %v", err)
		}
		orep.Timestamp = rep.Timestamp
		orep.GoVersion = rep.GoVersion
		orep.GOOS = rep.GOOS
		orep.GOARCH = rep.GOARCH
		odata, _ := json.MarshalIndent(orep, "", "  ")
		odata = append(odata, '\n')
		if err := os.WriteFile(*overloadOut, odata, 0o644); err != nil {
			log.Fatalf("ftperf: %v", err)
		}
		fmt.Printf("ftperf: wrote %s\n%s", filepath.Clean(*overloadOut), odata)
	}

	if *adhocOut != "" {
		arep, err := adhocProbe(*dur)
		if err != nil {
			log.Fatalf("ftperf: adhoc probe: %v", err)
		}
		arep.Timestamp = rep.Timestamp
		arep.GoVersion = rep.GoVersion
		arep.GOOS = rep.GOOS
		arep.GOARCH = rep.GOARCH
		adata, _ := json.MarshalIndent(arep, "", "  ")
		adata = append(adata, '\n')
		if err := os.WriteFile(*adhocOut, adata, 0o644); err != nil {
			log.Fatalf("ftperf: %v", err)
		}
		fmt.Printf("ftperf: wrote %s\n%s", filepath.Clean(*adhocOut), adata)
	}

	if *simOut != "" {
		srep, err := simProbe(*simMachines, *simDays)
		if err != nil {
			log.Fatalf("ftperf: sim probe: %v", err)
		}
		srep.Timestamp = rep.Timestamp
		srep.GoVersion = rep.GoVersion
		srep.GOOS = rep.GOOS
		srep.GOARCH = rep.GOARCH
		sdata, _ := json.MarshalIndent(srep, "", "  ")
		sdata = append(sdata, '\n')
		if err := os.WriteFile(*simOut, sdata, 0o644); err != nil {
			log.Fatalf("ftperf: %v", err)
		}
		fmt.Printf("ftperf: wrote %s\n%s", filepath.Clean(*simOut), sdata)
	}
}

// confirmProbe drives tick+heartbeat cycles for the budget and returns
// confirmed quanta per second. Each job's volume is effectively
// unbounded for the probe duration, so every slot grants one quantum
// per job (capacity is provisioned to fit them all) and every cycle
// confirms the previous slot's grants.
func confirmProbe(st *store.Store, jobs int, budget time.Duration, rep *report) (float64, error) {
	rm, err := rmserver.New(rmserver.Config{
		SlotDur:   time.Second, // slot length is irrelevant: ticks are manual
		Scheduler: sched.NewFIFO(),
		Store:     st,
	})
	if err != nil {
		return 0, err
	}
	if _, err := rm.RegisterNode(rmproto.RegisterNodeRequest{
		NodeID:   "n1",
		Capacity: rmproto.Resources{VCores: int64(jobs), MemoryMB: int64(jobs) * 1024},
	}, time.Now()); err != nil {
		return 0, err
	}
	for i := 0; i < jobs; i++ {
		if _, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
			ID: fmt.Sprintf("perf-%d", i), Tasks: 1, TaskDurSec: 1 << 20,
			DemandVCores: 1, DemandMemMB: 1024,
		}}); err != nil {
			return 0, err
		}
	}

	var confirmed int64
	var pending []string
	start := time.Now()
	for time.Since(start) < budget {
		if err := rm.Tick(time.Now()); err != nil {
			return 0, err
		}
		resp, err := rm.Heartbeat(rmproto.HeartbeatRequest{NodeID: "n1", Completed: pending}, time.Now())
		if err != nil {
			return 0, err
		}
		confirmed += int64(len(pending))
		pending = pending[:0]
		for _, q := range resp.Launch {
			pending = append(pending, q.ID)
		}
	}
	return float64(confirmed) / time.Since(start).Seconds(), nil
}
