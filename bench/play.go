package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"strings"
	"sync"
	"time"

	"flowtime/internal/rmproto"
	"flowtime/internal/trace"
)

// opKind classifies one request of the op list.
type opKind uint8

const (
	opSubmitWF opKind = iota
	opSubmitAdHoc
	opTick
	opHeartbeat
	opStatus
	opMetrics
	numOpKinds
)

var opNames = [numOpKinds]string{"submit_wf", "submit_adhoc", "tick", "heartbeat", "status", "metrics"}

// target is an RM the op list can be played against: the real ftrm over
// HTTP in the timed passes, an in-process server in the traced pass.
type target interface {
	Register(n nodeSpec) error
	SubmitWorkflow(rec trace.WorkflowRecord) (rmproto.SubmitResponse, error)
	SubmitAdHoc(rec trace.AdHocRecord) (rmproto.SubmitResponse, error)
	Tick() error
	Heartbeat(req rmproto.HeartbeatRequest) (rmproto.HeartbeatResponse, error)
	Status() (rmproto.StatusResponse, error)
	Metrics() error
}

// playResult is everything one pass observed from outside the RM.
type playResult struct {
	// Timed phase, main connection: op i of one pass is the same request
	// as op i of every other pass.
	kinds []opKind
	lat   []time.Duration
	// scrapeLat are the second connection's ops (scrape-mix only), a
	// status then a metrics scrape per slot.
	scrapeLat []time.Duration
	slotWall  []time.Duration
	wall      time.Duration

	// digest[0] covers set-up, digest[1+s] timed slot s: a hash of every
	// decision the RM returned, for the determinism guard.
	digest []uint64

	// Per-workflow first grant: op index of the submission and of the
	// heartbeat whose reply carried the first quantum of any of its jobs.
	wfSubmitOp map[string]int
	wfGrantOp  map[string]int
	// RM slot at submission (the number of ticks before it).
	wfSubmitSlot    map[string]int64
	adhocSubmitSlot map[string]int64

	adhocAttempted, adhocAdmitted int
	bestEffort                    int
	granted, confirmed            int

	attempted, failed int
	firstErr          error
}

type player struct {
	sc  *scenario
	t   target
	scr target // second connection; nil unless the workload has a scraper
	// serialScrape runs the second connection's ops after the heartbeats
	// instead of beside them (the traced pass is single-goroutine).
	serialScrape bool
	res          *playResult

	pending [][]string // per node: quanta launched by its previous heartbeat
	rmSlot  int64
	timed   bool
	hash    digester

	scrapes, scrapeFailed int
	scrapeErr             error
}

func newPlayer(sc *scenario, t, scr target) *player {
	nOps := 0
	for _, sl := range sc.slots {
		nOps += len(sl.wfs) + len(sl.adhoc) + 1 + len(sc.nodes) + 2
	}
	return &player{
		sc: sc, t: t, scr: scr,
		res: &playResult{
			kinds:           make([]opKind, 0, nOps),
			lat:             make([]time.Duration, 0, nOps),
			slotWall:        make([]time.Duration, 0, len(sc.slots)),
			digest:          make([]uint64, 0, len(sc.slots)+1),
			wfSubmitOp:      map[string]int{},
			wfGrantOp:       map[string]int{},
			wfSubmitSlot:    map[string]int64{},
			adhocSubmitSlot: map[string]int64{},
		},
		pending: make([][]string, len(sc.nodes)),
		hash:    newDigester(),
	}
}

// note accounts one finished op: its outcome always, its latency only in
// the timed phase.
func (p *player) note(k opKind, d time.Duration, err error) {
	p.res.attempted++
	if err != nil {
		p.res.failed++
		if p.res.firstErr == nil {
			p.res.firstErr = fmt.Errorf("slot %d %s: %w", p.rmSlot, opNames[k], err)
		}
	}
	if p.timed {
		p.res.kinds = append(p.res.kinds, k)
		p.res.lat = append(p.res.lat, d)
	}
}

func (p *player) submitWF(rec trace.WorkflowRecord) {
	start := time.Now()
	resp, err := p.t.SubmitWorkflow(rec)
	d := time.Since(start)
	if err == nil && !resp.Accepted {
		err = fmt.Errorf("workflow %s not accepted", rec.ID)
	}
	if p.timed {
		p.res.wfSubmitOp[rec.ID] = len(p.res.lat)
	}
	p.note(opSubmitWF, d, err)
	p.res.wfSubmitSlot[rec.ID] = p.rmSlot
	if resp.BestEffort {
		p.res.bestEffort++
	}
	p.hash.str(rec.ID)
	p.hash.flag(resp.BestEffort)
}

func (p *player) submitAdHoc(rec trace.AdHocRecord) {
	start := time.Now()
	resp, err := p.t.SubmitAdHoc(rec)
	p.note(opSubmitAdHoc, time.Since(start), err)
	p.res.adhocAttempted++
	if resp.Accepted {
		// A gate rejection is a decision, not a failure.
		p.res.adhocAdmitted++
		p.res.adhocSubmitSlot["adhoc/"+rec.ID] = p.rmSlot
	}
	p.hash.str(rec.ID)
	p.hash.flag(resp.Accepted)
}

func (p *player) tick() {
	start := time.Now()
	err := p.t.Tick()
	p.note(opTick, time.Since(start), err)
	p.rmSlot++
}

// heartbeats runs one heartbeat per node in ID order, confirming what the
// node launched a slot ago and taking what this slot's tick granted.
func (p *player) heartbeats() {
	for i, n := range p.sc.nodes {
		req := rmproto.HeartbeatRequest{NodeID: n.id, Completed: p.pending[i]}
		start := time.Now()
		resp, err := p.t.Heartbeat(req)
		opIdx := len(p.res.lat)
		p.note(opHeartbeat, time.Since(start), err)
		p.res.confirmed += len(req.Completed)
		p.res.granted += len(resp.Launch)
		next := p.pending[i][:0]
		for _, q := range resp.Launch {
			next = append(next, q.ID)
			p.hash.str(q.ID)
			p.hash.str(q.JobID)
			p.hash.num(q.Grant.VCores)
			p.hash.num(q.Grant.MemoryMB)
			if !p.timed {
				continue
			}
			if cut := strings.IndexByte(q.JobID, '/'); cut > 0 {
				wf := q.JobID[:cut]
				if _, timedWF := p.res.wfSubmitOp[wf]; timedWF {
					if _, seen := p.res.wfGrantOp[wf]; !seen {
						p.res.wfGrantOp[wf] = opIdx
					}
				}
			}
		}
		p.pending[i] = next
	}
}

// scrape is the main connection's periodic status + metrics pair.
func (p *player) scrape() {
	start := time.Now()
	st, err := p.t.Status()
	p.note(opStatus, time.Since(start), err)
	// Fold the RM's own counters in, so a pass whose planner took a
	// different path is caught at the first scrape after it.
	p.hash.num(st.Slot)
	p.hash.num(int64(st.OutstandingLeases))
	if st.Plan != nil {
		p.hash.num(st.Plan.Rev)
	}
	if st.Degradation != nil {
		p.hash.num(st.Degradation.LPWarmStarts)
		p.hash.num(st.Degradation.LPColdStarts)
	}
	start = time.Now()
	err = p.t.Metrics()
	p.note(opMetrics, time.Since(start), err)
}

// scrapeBeside is the second connection's work for one slot: a status
// and a metrics scrape back to back while the heartbeats run. It reads
// only, so it changes no schedule.
func (p *player) scrapeBeside() {
	for i := 0; i < 2; i++ {
		var err error
		start := time.Now()
		if i == 0 {
			_, err = p.scr.Status()
		} else {
			err = p.scr.Metrics()
		}
		if p.timed {
			p.res.scrapeLat = append(p.res.scrapeLat, time.Since(start))
		}
		p.scrapes++
		if err != nil {
			p.scrapeFailed++
			if p.scrapeErr == nil {
				p.scrapeErr = err
			}
		}
	}
}

// setup registers the nodes, bulk-submits the initial workflows, runs
// the first tick (the cold replan) and the first heartbeat round, then
// plays the warm-up slots: the same loop as the timed phase, untimed.
func (p *player) setup() error {
	for _, n := range p.sc.nodes {
		if err := p.t.Register(n); err != nil {
			return fmt.Errorf("register %s: %w", n.id, err)
		}
	}
	for _, rec := range p.sc.setup {
		p.submitWF(rec)
	}
	p.tick()
	p.heartbeats()
	for s := range p.sc.warm {
		p.slot(&p.sc.warm[s], s)
	}
	p.res.digest = append(p.res.digest, p.hash.take())
	return p.res.firstErr
}

// slot plays one slot of the op list: the submissions due, workflows
// then ad-hoc, the tick, every node's heartbeat, and every scrapeEvery-th
// slot one status and metrics scrape. The second connection, if any,
// scrapes beside the heartbeats, with a barrier before the next tick.
func (p *player) slot(load *slotLoad, s int) {
	for _, rec := range load.wfs {
		p.submitWF(rec)
	}
	for _, rec := range load.adhoc {
		p.submitAdHoc(rec)
	}
	p.tick()
	var wg sync.WaitGroup
	if p.scr != nil && !p.serialScrape {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.scrapeBeside()
		}()
	}
	p.heartbeats()
	wg.Wait()
	if p.scr != nil && p.serialScrape {
		p.scrapeBeside()
	}
	if p.sc.scrapeEvery > 0 && (s+1)%p.sc.scrapeEvery == 0 {
		p.scrape()
	}
}

// run plays the timed slots. It is a closed loop: each request is sent
// when the previous reply has been read; nothing sleeps.
func (p *player) run() {
	p.timed = true
	begin := time.Now()
	for s := range p.sc.slots {
		slotStart := time.Now()
		p.slot(&p.sc.slots[s], s)
		p.res.slotWall = append(p.res.slotWall, time.Since(slotStart))
		p.res.digest = append(p.res.digest, p.hash.take())
	}
	p.res.wall = time.Since(begin)
	p.timed = false
	p.res.attempted += p.scrapes
	p.res.failed += p.scrapeFailed
	if p.scrapeErr != nil && p.res.firstErr == nil {
		p.res.firstErr = fmt.Errorf("scraper: %w", p.scrapeErr)
	}
}

// digester folds observed decisions into a running FNV-1a hash.
type digester struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigester() digester { return digester{h: fnv.New64a()} }

func (d *digester) str(s string) {
	_, _ = d.h.Write([]byte(s)) // hash.Hash never returns an error
	_, _ = d.h.Write([]byte{0})
}

func (d *digester) num(v int64) {
	for i := range d.buf {
		d.buf[i] = byte(v >> (8 * i))
	}
	_, _ = d.h.Write(d.buf[:])
}

func (d *digester) flag(b bool) {
	if b {
		d.num(1)
	} else {
		d.num(0)
	}
}

// take returns the running hash; it is cumulative, so the first slot
// whose digest differs between two passes is the first slot that
// differed.
func (d *digester) take() uint64 { return d.h.Sum64() }
