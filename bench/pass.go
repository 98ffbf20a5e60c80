package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"flowtime/internal/rmproto"
)

// passResult is one timed pass over the real ftrm.
type passResult struct {
	*playResult
	setup   time.Duration // exec -> first heartbeat round done
	recover time.Duration // exec on the used state dir -> status at the pre-kill slot; fastest of recoverRounds
	cpu     time.Duration // ftrm user+sys over the timed phase
	rssMB   float64       // ftrm VmHWM at the end of the timed phase
	final   rmproto.StatusResponse
	// what the timed phase cost in I/O: HTTP body bytes in both
	// directions, and the WAL bytes and fsyncs ftrm reports
	reqBytes, respBytes int64
	walBytes, fsyncs    int64
	// refLoop is how long a fixed CPU loop took around this pass's timed
	// phase (mean of the medians before and after): the machine's speed
	// at the time, independent of the program measured.
	refLoop time.Duration
}

// refLoop times a fixed, allocation-free CPU loop 7 times and returns
// the median. It measures the machine, not the program: on a shared box
// the same loop runs 1.2-1.8x slower for minutes at a time.
func refLoop() time.Duration {
	var ds [7]time.Duration
	for i := range ds {
		start := time.Now()
		x := uint64(88172645463325252)
		for j := 0; j < 2_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		refSink.Store(x)
		ds[i] = time.Since(start)
	}
	s := ds[:]
	slices.Sort(s)
	return s[len(s)/2]
}

var refSink atomic.Uint64 // keeps the loop from being optimised away

// recoverRounds is how many times a pass kills and restarts ftrm on the
// used state directory; recover_s is the fastest restart.
const recoverRounds = 3

// runPass starts a fresh ftrm on a fresh state directory, plays the
// scenario against it over HTTP, then kills it and times the restart.
func runPass(bin string, sc *scenario, outDir string, idx int) (*passResult, error) {
	stateDir := filepath.Join(outDir, fmt.Sprintf("state-%s-%d", sc.name, idx))
	if err := os.RemoveAll(stateDir); err != nil {
		return nil, err
	}
	logPath := filepath.Join(outDir, fmt.Sprintf("ftrm-%s-%d.log", sc.name, idx))
	if err := os.RemoveAll(logPath); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}

	var reqBytes, respBytes atomic.Int64
	t0 := time.Now()
	proc, err := startRM(bin, stateDir, addr, logPath)
	if err != nil {
		return nil, err
	}
	live := proc // whichever incarnation is running, for the error paths
	defer func() { live.kill() }()

	main := newHTTPTarget(proc.base, &reqBytes, &respBytes)
	defer main.close()
	var scr target
	if sc.scraper {
		s := newHTTPTarget(proc.base, &reqBytes, &respBytes)
		defer s.close()
		scr = s
	}
	if _, err := main.waitReady(proc); err != nil {
		return nil, err
	}
	p := newPlayer(sc, main, scr)
	if err := p.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res := &passResult{playResult: p.res, setup: time.Since(t0)}
	before, err := main.durableStatus()
	if err != nil {
		return nil, fmt.Errorf("status after set-up: %w", err)
	}

	cpu0, err := proc.cpu()
	if err != nil {
		return nil, err
	}
	req0, resp0 := reqBytes.Load(), respBytes.Load()
	ref0 := refLoop()
	p.run()
	res.refLoop = (ref0 + refLoop()) / 2
	cpu1, err := proc.cpu()
	if err != nil {
		return nil, err
	}
	res.cpu = cpu1 - cpu0
	res.reqBytes, res.respBytes = reqBytes.Load()-req0, respBytes.Load()-resp0
	if res.rssMB, err = proc.peakRSSMB(); err != nil {
		return nil, err
	}
	if res.firstErr != nil {
		return res, nil // reported as failed operations by the caller
	}
	if res.final, err = main.durableStatus(); err != nil {
		return nil, fmt.Errorf("final status: %w", err)
	}
	res.walBytes = res.final.Durability.WALBytes - before.Durability.WALBytes
	res.fsyncs = res.final.Durability.Fsyncs - before.Durability.Fsyncs

	// Recovery: SIGKILL, restart on the same directory. Manual-tick mode
	// never snapshots, so each restart replays the whole run's WAL; it is
	// done recoverRounds times because one restart is only ~0.1 s.
	for i := 0; i < recoverRounds; i++ {
		live.kill()
		main.close()
		t1 := time.Now()
		next, err := startRM(bin, stateDir, addr, logPath)
		if err != nil {
			return nil, err
		}
		live = next
		after, err := main.waitReady(live)
		if err != nil {
			return nil, err
		}
		if d := time.Since(t1); i == 0 || d < res.recover {
			res.recover = d
		}
		if err := sameState(res.final, after); err != nil {
			return nil, fmt.Errorf("restarted ftrm: %w", err)
		}
	}
	return res, nil
}

// sameState checks that a restarted RM reports the slot and per-job
// states the killed one did.
func sameState(before, after rmproto.StatusResponse) error {
	if before.Slot != after.Slot {
		return fmt.Errorf("slot %d after restart, %d before the kill", after.Slot, before.Slot)
	}
	return sameJobs(before.Jobs, after.Jobs)
}

// sameJobs checks that two job tables agree on every job's state,
// delivered volume and completion slot.
func sameJobs(want, got []rmproto.JobStatus) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d jobs tracked, want %d", len(got), len(want))
	}
	for i, w := range want {
		if g := got[i]; g != w {
			return fmt.Errorf("job %s is %s at slot %d (%+v), want %s at slot %d (%+v)",
				w.ID, g.State, jobDoneSlot(g), g.Delivered, w.State, jobDoneSlot(w), w.Delivered)
		}
	}
	return nil
}
