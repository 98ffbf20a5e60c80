// Command ftperf runs the two probes the whole-path benchmark (bench/)
// does not cover and writes each one's machine-readable report, so their
// trajectory can be tracked run over run (`make bench`):
//
//   - the planner probe (lp.go, BENCH_lp.json): one replan's skyline at
//     the paper's Fig. 7 scale by the flow planner, with the reference
//     simplex beside it on the small sizes; -lp-guard turns it into the
//     regression gate `make bench-smoke` runs.
//   - the ad-hoc gate probe (adhoc.go, BENCH_adhoc.json): the lock-free
//     admission queue under full-core contention with concurrent rebases.
//
// What the RM's control plane costs — confirm throughput, fsync
// percentiles, recovery time — is bench/'s to measure, on a real ftrm.
//
// Usage:
//
//	ftperf [-lpout BENCH_lp.json] [-adhocout BENCH_adhoc.json] [-duration 2s] [-lpiters 5] [-lp-guard]
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
)

// stamp opens every report: when and on what it was measured.
type stamp struct {
	Timestamp string `json:"timestamp"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

func main() {
	log.SetFlags(0)
	lpOut := flag.String("lpout", "BENCH_lp.json", "output path for the planner (flow vs. reference simplex) report (empty to skip)")
	adhocOut := flag.String("adhocout", "BENCH_adhoc.json", "output path for the ad-hoc admission probe report (empty to skip)")
	dur := flag.Duration("duration", 2*time.Second, "wall-clock budget of the ad-hoc admission probe")
	lpIters := flag.Int("lpiters", 5, "reference-simplex LexMinMax calls per small instance size in the planner probe (the flow arm never runs fewer than 5)")
	lpGuardOn := flag.Bool("lp-guard", false, "fail (exit 1) when the planner probe regresses: at 200x150 the flow planner's and the reference simplex's levels must agree per slot; at 5kx1k a flow replan must stay under 1 s")
	flag.Parse()

	now := stamp{time.Now().UTC().Format(time.RFC3339), runtime.Version(), runtime.GOOS, runtime.GOARCH}

	if *lpOut != "" {
		lrep, err := lpProbe(*lpIters)
		if err != nil {
			log.Fatalf("ftperf: lp probe: %v", err)
		}
		lrep.stamp = now
		write(*lpOut, &lrep)
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

	if *adhocOut != "" {
		arep, err := adhocProbe(*dur)
		if err != nil {
			log.Fatalf("ftperf: adhoc probe: %v", err)
		}
		arep.stamp = now
		write(*adhocOut, arep)
	}
}

// write stores one report as indented JSON and echoes it.
func write(path string, report any) {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatalf("ftperf: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatalf("ftperf: %v", err)
	}
	fmt.Printf("ftperf: wrote %s\n%s", filepath.Clean(path), data)
}
