// Package machine models the cluster at machine granularity: a set of
// named nodes with individual capacities that join, leave, fail, and get
// capacity-scaled over simulated time, plus a placement layer that lands
// scheduled work on concrete machines in task-sized units.
//
// The aggregate simulator (internal/sim without machine mode) treats the
// cluster as one big resource vector; this package is what turns that
// fluid approximation into a packing problem. A grant of g resources is
// placed as floor-divisible task units on live machines, and whatever does
// not fit on any single machine — even though the *sum* of free capacity
// would cover it — is reported back as a fragmentation-induced placement
// failure. That feedback is the whole point: it is the error term between
// the paper's slot-indexed capacity model (Eq. 4) and a real datacenter.
//
// Event processing is slot-quantized to match the simulator: events carry
// the slot they take effect at, and the machine set is fixed within a
// slot, so work is never placed on a machine that is dead in that slot.
package machine

import (
	"fmt"
	"sort"

	"flowtime/internal/resource"
)

// Spec describes one machine.
type Spec struct {
	// ID identifies the machine; must be unique among live machines.
	ID string
	// Capacity is the machine's nominal resources; must be non-zero.
	Capacity resource.Vector
}

// Validate checks the spec invariants.
func (s Spec) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("machine: spec with empty ID")
	}
	if err := s.Capacity.Validate(); err != nil {
		return fmt.Errorf("machine: %s: %w", s.ID, err)
	}
	if s.Capacity.IsZero() {
		return fmt.Errorf("machine: %s: zero capacity", s.ID)
	}
	return nil
}

// EventKind classifies a cluster event.
type EventKind int

// Event kinds. Enums start at one so the zero value is invalid.
const (
	// Join adds a machine (or re-adds one that previously left/failed).
	Join EventKind = iota + 1
	// Leave removes a machine gracefully (drain, decommission).
	Leave
	// Fail removes a machine abruptly (crash, power loss). For the
	// slot-quantized model the capacity effect equals Leave; the kinds
	// are kept distinct so scenarios and metrics can tell churn from
	// failure.
	Fail
	// SetScale sets the cluster-wide capacity scale factor to
	// ScaleNum/ScaleDen — the energy/price-varying capacity knob: every
	// machine's effective capacity becomes nominal*num/den.
	SetScale
)

// String returns the kind name.
func (k EventKind) String() string {
	switch k {
	case Join:
		return "join"
	case Leave:
		return "leave"
	case Fail:
		return "fail"
	case SetScale:
		return "scale"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one timed change to the cluster.
type Event struct {
	// Slot is when the event takes effect (processed at slot start).
	Slot int64
	// Kind selects the change.
	Kind EventKind
	// Spec is the joining machine (Join only).
	Spec Spec
	// ID names the machine to remove (Leave/Fail only).
	ID string
	// ScaleNum/ScaleDen set the capacity scale factor (SetScale only);
	// ScaleDen must be > 0 and ScaleNum in [0, ScaleDen].
	ScaleNum, ScaleDen int64
}

// Validate checks the event invariants.
func (e Event) Validate() error {
	if e.Slot < 0 {
		return fmt.Errorf("machine: event at negative slot %d", e.Slot)
	}
	switch e.Kind {
	case Join:
		return e.Spec.Validate()
	case Leave, Fail:
		if e.ID == "" {
			return fmt.Errorf("machine: %s event with empty ID at slot %d", e.Kind, e.Slot)
		}
	case SetScale:
		if e.ScaleDen <= 0 || e.ScaleNum < 0 || e.ScaleNum > e.ScaleDen {
			return fmt.Errorf("machine: scale %d/%d out of range at slot %d", e.ScaleNum, e.ScaleDen, e.Slot)
		}
	default:
		return fmt.Errorf("machine: unknown event kind %v at slot %d", e.Kind, e.Slot)
	}
	return nil
}

// SortEvents orders events by slot (stable, so same-slot events keep
// their scenario order: a leave followed by a re-join works).
func SortEvents(events []Event) {
	sort.SliceStable(events, func(a, b int) bool { return events[a].Slot < events[b].Slot })
}

// Placement is one job's landing on one machine in one slot.
type Placement struct {
	// MachineID is where the units landed.
	MachineID string
	// Units is how many task-sized units landed there.
	Units int64
	// Amount is the total resources consumed on the machine.
	Amount resource.Vector
}

// Usage is one machine's occupancy at the end of a slot, consumed by the
// per-machine invariant checker.
type Usage struct {
	ID       string
	Used     resource.Vector
	Capacity resource.Vector // effective (scaled) capacity this slot
}

// node is the internal machine state.
type node struct {
	spec    Spec
	effCap  resource.Vector // nominal scaled by the cluster factor
	used    resource.Vector // occupancy in the current slot
	stamp   int64           // slot `used` belongs to (lazy reset)
	liveIdx int             // index into Cluster.live
}

// Cluster is the machine-granular cluster state. It is not safe for
// concurrent use; the simulator drives it from one goroutine.
type Cluster struct {
	nodes map[string]*node
	live  []*node
	slot  int64

	scaleNum, scaleDen int64
	total              resource.Vector // sum of live effective capacities
	cursor             int             // rotating first-fit start

	stats Stats
}

// Stats counts cluster events and placement outcomes over a run.
type Stats struct {
	// Joins/Leaves/Fails/Scales count applied events by kind.
	Joins, Leaves, Fails, Scales int64
	// Placements counts Place calls that landed at least one unit;
	// PlacedUnits is the total units landed.
	Placements, PlacedUnits int64
	// Failures counts Place calls that could not land every requested
	// unit; ShortUnits is the total units that found no machine.
	Failures, ShortUnits int64
	// FragmentationFailures is the subset of Failures where the cluster's
	// summed free capacity could have covered the shortfall — the units
	// were refused purely because no single machine had room.
	FragmentationFailures int64
}

// NewCluster returns an empty cluster (scale 1/1) with the given
// machines live at slot 0.
func NewCluster(initial []Spec) (*Cluster, error) {
	c := &Cluster{
		nodes:    make(map[string]*node, len(initial)),
		scaleNum: 1,
		scaleDen: 1,
	}
	for _, s := range initial {
		if err := c.join(s); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *Cluster) scale(v resource.Vector) resource.Vector {
	if c.scaleNum == c.scaleDen {
		return v
	}
	var out resource.Vector
	for _, k := range resource.Kinds() {
		out = out.With(k, v.Get(k)*c.scaleNum/c.scaleDen)
	}
	return out
}

func (c *Cluster) join(s Spec) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if _, ok := c.nodes[s.ID]; ok {
		return fmt.Errorf("machine: %s already live", s.ID)
	}
	n := &node{spec: s, effCap: c.scale(s.Capacity), stamp: -1, liveIdx: len(c.live)}
	c.nodes[s.ID] = n
	c.live = append(c.live, n)
	c.total = c.total.Add(n.effCap)
	return nil
}

func (c *Cluster) remove(id string) error {
	n, ok := c.nodes[id]
	if !ok {
		return fmt.Errorf("machine: %s not live", id)
	}
	delete(c.nodes, id)
	c.total = c.total.Sub(n.effCap)
	// Swap-remove from the live slice.
	last := len(c.live) - 1
	c.live[n.liveIdx] = c.live[last]
	c.live[n.liveIdx].liveIdx = n.liveIdx
	c.live = c.live[:last]
	if c.cursor > last {
		c.cursor = 0
	}
	return nil
}

// Apply processes one event. Events must be applied in slot order.
func (c *Cluster) Apply(e Event) error {
	if err := e.Validate(); err != nil {
		return err
	}
	switch e.Kind {
	case Join:
		if err := c.join(e.Spec); err != nil {
			return err
		}
		c.stats.Joins++
	case Leave:
		if err := c.remove(e.ID); err != nil {
			return err
		}
		c.stats.Leaves++
	case Fail:
		if err := c.remove(e.ID); err != nil {
			return err
		}
		c.stats.Fails++
	case SetScale:
		c.scaleNum, c.scaleDen = e.ScaleNum, e.ScaleDen
		c.total = resource.Vector{}
		for _, n := range c.live {
			n.effCap = c.scale(n.spec.Capacity)
			c.total = c.total.Add(n.effCap)
		}
		c.stats.Scales++
	}
	return nil
}

// BeginSlot starts a new slot: occupancy from previous slots becomes
// stale (reset lazily via stamps, so this is O(1) at any machine count).
func (c *Cluster) BeginSlot(slot int64) { c.slot = slot }

// Live returns the number of live machines.
func (c *Cluster) Live() int { return len(c.live) }

// Capacity returns the summed effective capacity of all live machines —
// what the aggregate simulator sees as the cluster cap this slot.
func (c *Cluster) Capacity() resource.Vector { return c.total }

// Stats returns the accumulated counters.
func (c *Cluster) Stats() Stats { return c.stats }

func (n *node) free(slot int64) resource.Vector {
	if n.stamp != slot {
		return n.effCap
	}
	return n.effCap.SubClamped(n.used)
}

// unitsThatFit returns how many copies of unit fit in free.
func unitsThatFit(free, unit resource.Vector, want int64) int64 {
	fit := want
	for _, k := range resource.Kinds() {
		u := unit.Get(k)
		if u <= 0 {
			continue
		}
		if n := free.Get(k) / u; n < fit {
			fit = n
		}
	}
	if fit < 0 {
		return 0
	}
	return fit
}

// Place lands up to want units of the given per-unit demand on live
// machines, first-fit from a rotating cursor (so load spreads instead of
// piling onto machine 0). It returns the units actually placed and the
// per-machine placements; placed < want means the remainder fit on no
// single machine this slot. The unit must be non-zero.
func (c *Cluster) Place(unit resource.Vector, want int64) (int64, []Placement) {
	if want <= 0 || unit.IsZero() || len(c.live) == 0 {
		if want > 0 {
			c.stats.Failures++
			c.stats.ShortUnits += want
		}
		return 0, nil
	}
	var placements []Placement
	placed := int64(0)
	n := len(c.live)
	for scanned := 0; scanned < n && placed < want; scanned++ {
		idx := (c.cursor + scanned) % n
		m := c.live[idx]
		fit := unitsThatFit(m.free(c.slot), unit, want-placed)
		if fit <= 0 {
			continue
		}
		amount := unit.Scale(fit)
		if m.stamp != c.slot {
			m.stamp = c.slot
			m.used = resource.Vector{}
		}
		m.used = m.used.Add(amount)
		placements = append(placements, Placement{MachineID: m.spec.ID, Units: fit, Amount: amount})
		placed += fit
	}
	// Advance the cursor past the first machine touched so the next job
	// starts elsewhere.
	if n > 0 {
		c.cursor = (c.cursor + 1) % n
	}
	if placed > 0 {
		c.stats.Placements++
		c.stats.PlacedUnits += placed
	}
	if placed < want {
		c.stats.Failures++
		short := want - placed
		c.stats.ShortUnits += short
		// Fragmentation: the summed free capacity could still hold at
		// least one more unit's worth of every resource, but no single
		// machine could.
		var freeSum resource.Vector
		for _, m := range c.live {
			freeSum = freeSum.Add(m.free(c.slot))
		}
		if unit.FitsIn(freeSum) {
			c.stats.FragmentationFailures++
		}
	}
	return placed, placements
}

// SlotUsage returns the occupancy of every machine that received work in
// the current slot, in deterministic (ID-sorted) order, for the
// per-machine invariant checker.
func (c *Cluster) SlotUsage() []Usage {
	var out []Usage
	for _, m := range c.live {
		if m.stamp != c.slot || m.used.IsZero() {
			continue
		}
		out = append(out, Usage{ID: m.spec.ID, Used: m.used, Capacity: m.effCap})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Homogeneous builds n identical machine specs named prefix-0..n-1.
func Homogeneous(prefix string, n int, each resource.Vector) []Spec {
	specs := make([]Spec, 0, n)
	for i := 0; i < n; i++ {
		specs = append(specs, Spec{ID: fmt.Sprintf("%s-%d", prefix, i), Capacity: each})
	}
	return specs
}

// Profile is the aggregate capacity step function that results from
// replaying events over an initial machine set — the capacity-over-time
// C[t] of the paper's Eq. 4, which "could vary with time", and the view
// schedulers plan against. It is the one compiler of joins, leaves,
// failures and scale changes into capacity: machine mode compiles its
// machine set, and a fluid cluster with outages is one machine and a pair
// of SetScale events per dip.
type Profile struct {
	// caps[i] applies to slots in [breakpoints[i], breakpoints[i+1]);
	// breakpoints ascend from 0.
	breakpoints []int64
	caps        []resource.Vector
}

// NewProfile compiles the profile. Events must already be slot-sorted.
func NewProfile(initial []Spec, events []Event) (*Profile, error) {
	shadow, err := NewCluster(initial)
	if err != nil {
		return nil, err
	}
	p := &Profile{}
	push := func(slot int64, c resource.Vector) {
		if n := len(p.breakpoints); n > 0 {
			if p.breakpoints[n-1] == slot {
				p.caps[n-1] = c
				return
			}
			if p.caps[n-1] == c {
				return
			}
		}
		p.breakpoints = append(p.breakpoints, slot)
		p.caps = append(p.caps, c)
	}
	push(0, shadow.Capacity())
	prev := int64(0)
	for _, e := range events {
		if e.Slot < prev {
			return nil, fmt.Errorf("machine: events not slot-sorted (%d after %d)", e.Slot, prev)
		}
		prev = e.Slot
		if err := shadow.Apply(e); err != nil {
			return nil, err
		}
		push(e.Slot, shadow.Capacity())
	}
	return p, nil
}

// CapAt returns the capacity at the given slot. Slots before 0 report the
// slot-0 capacity.
func (p *Profile) CapAt(slot int64) resource.Vector {
	i := sort.Search(len(p.breakpoints), func(k int) bool { return p.breakpoints[k] > slot })
	if i == 0 {
		return p.caps[0]
	}
	return p.caps[i-1]
}
