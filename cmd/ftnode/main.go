// Command ftnode runs a simulated node manager: it registers with the
// resource manager (ftrm), heartbeats on the interval the RM dictates,
// executes the slot-sized work leases it receives (by holding them for
// one heartbeat period), and confirms them on the next heartbeat.
//
// The agent is fault-tolerant: each call to the RM is one attempt with a
// deadline (a heartbeat's is the heartbeat interval), a failed one is
// tried again by the agent's own loop after a capped exponential backoff
// with jitter, and when the RM answers "unknown node" (RM restart or
// eviction after missed heartbeats) the agent automatically re-registers
// and resumes heartbeating.
//
// -rm accepts a comma-separated list of RM URLs for replicated
// deployments. When the current RM answers "not_leader" (it is a
// standby, or was deposed by a failover) the agent follows the leader
// hint — or rotates to the next URL — and re-registers; when the RM
// stops answering, or takes connections and never answers, the agent
// rotates after repeated failures. When every configured RM is
// unreachable the agent probes the ring at the backoff cap (5s), logging
// once per outage transition rather than once per attempt.
//
// Usage:
//
//	ftnode [-rm http://localhost:8030[,http://backup:8030]] [-id node-1]
//	       [-cores 32] [-mem-mb 65536]
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"flowtime/internal/rmproto"
	"flowtime/internal/rmserver"
)

func main() {
	log.SetFlags(log.LstdFlags)
	var (
		rmURL = flag.String("rm", "http://localhost:8030", "resource manager URL(s), comma-separated; first is tried first")
		id    = flag.String("id", "", "node ID (required)")
		cores = flag.Int64("cores", 32, "node vcores")
		memMB = flag.Int64("mem-mb", 64*1024, "node memory (MiB)")
	)
	flag.Parse()
	if *id == "" {
		log.Println("ftnode: -id is required")
		os.Exit(2)
	}

	var rms []string
	for _, u := range strings.Split(*rmURL, ",") {
		if u = strings.TrimSpace(u); u != "" {
			rms = append(rms, u)
		}
	}
	if len(rms) == 0 {
		log.Println("ftnode: -rm needs at least one URL")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err := rmserver.RunAgent(ctx, rmserver.NewClient(rms[0], nil), rmserver.AgentConfig{
		NodeID:   *id,
		Capacity: rmproto.Resources{VCores: *cores, MemoryMB: *memMB},
		RMs:      rms,
		Logf:     log.Printf,
	})
	if err != nil && ctx.Err() == nil {
		log.Println("ftnode:", err)
		os.Exit(1)
	}
}
