// Package machine models the cluster at machine granularity: a set of
// named nodes with individual capacities that join, leave, fail, and get
// capacity-scaled over simulated time. It tracks which machines are live
// at what capacity. It places nothing: the simulator (internal/sim) applies
// each event to its machine's node in the resource manager's node set,
// rmstate's Nodes, which placement walks and the scheduler plans on.
// Profile compiles events into a capacity declared ahead, aggregate mode's.
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
	// Fail removes a machine abruptly (crash, power loss). Its capacity
	// effect equals Leave's, but the work differs: a machine that leaves
	// confirms what it ran the slot before, while the simulator requeues
	// a failed machine's leases at the slot it fails, as the resource
	// manager requeues those of a node that stopped heartbeating.
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

// Cluster is the live machine set. It is not safe for concurrent use;
// the simulator drives it from one goroutine.
type Cluster struct {
	live               map[string]resource.Vector // nominal capacities by ID
	scaleNum, scaleDen int64
	total              resource.Vector // sum of live effective capacities
	stats              Stats
}

// Stats counts the applied cluster events by kind.
type Stats struct{ Joins, Leaves, Fails, Scales int64 }

// NewCluster returns an empty cluster (scale 1/1) with the given
// machines live at slot 0.
func NewCluster(initial []Spec) (*Cluster, error) {
	c := &Cluster{live: make(map[string]resource.Vector, len(initial)), scaleNum: 1, scaleDen: 1}
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
	if _, found := c.live[s.ID]; found {
		return fmt.Errorf("machine: %s already live", s.ID)
	}
	c.live[s.ID] = s.Capacity
	c.total = c.total.Add(c.scale(s.Capacity))
	return nil
}

func (c *Cluster) remove(id string) error {
	capacity, found := c.live[id]
	if !found {
		return fmt.Errorf("machine: %s not live", id)
	}
	c.total = c.total.Sub(c.scale(capacity))
	delete(c.live, id)
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
		//det:unordered a sum
		for _, capacity := range c.live {
			c.total = c.total.Add(c.scale(capacity))
		}
		c.stats.Scales++
	}
	return nil
}

// Live returns the number of live machines.
func (c *Cluster) Live() int { return len(c.live) }

// Machine returns machine id's effective (scaled) capacity: none unless
// it is live.
func (c *Cluster) Machine(id string) resource.Vector { return c.scale(c.live[id]) }

// Capacity returns the summed effective capacity of all live machines —
// what the aggregate simulator sees as the cluster cap this slot.
func (c *Cluster) Capacity() resource.Vector { return c.total }

// Stats returns the accumulated counters.
func (c *Cluster) Stats() Stats { return c.stats }

// Homogeneous builds n identical machine specs named prefix-0..n-1.
func Homogeneous(prefix string, n int, each resource.Vector) []Spec {
	specs := make([]Spec, 0, n)
	for i := 0; i < n; i++ {
		specs = append(specs, Spec{ID: fmt.Sprintf("%s-%d", prefix, i), Capacity: each})
	}
	return specs
}

// Profile is the aggregate capacity step function that results from
// replaying events over an initial machine set: the capacity-over-time C[t]
// of the paper's Eq. 4, which "could vary with time", declared ahead. It is
// aggregate mode's capacity function (sim.Config.Capacity), a fluid
// cluster with outages as one machine and a pair of SetScale events a dip.
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
