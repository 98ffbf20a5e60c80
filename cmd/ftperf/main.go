// Command ftperf runs the probe the whole-path benchmark (bench/) does not
// cover and writes its machine-readable report, so its trajectory can be
// tracked run over run (`make bench`): the ad-hoc gate probe (adhoc.go,
// BENCH_adhoc.json), the lock-free admission queue under full-core
// contention with concurrent rebases.
//
// What the RM's control plane costs — confirm throughput, fsync
// percentiles, recovery time — is bench/'s to measure, on a real ftrm;
// what one replan costs at the paper's Fig. 7 scale is internal/flow's
// BenchmarkLexMinMax.
//
// Usage:
//
//	ftperf [-adhocout BENCH_adhoc.json] [-duration 2s]
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
	adhocOut := flag.String("adhocout", "BENCH_adhoc.json", "output path for the ad-hoc admission probe report (empty to skip)")
	dur := flag.Duration("duration", 2*time.Second, "wall-clock budget of the ad-hoc admission probe")
	flag.Parse()

	now := stamp{time.Now().UTC().Format(time.RFC3339), runtime.Version(), runtime.GOOS, runtime.GOARCH}

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
