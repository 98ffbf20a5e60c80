// Package resource defines the multi-dimensional resource model shared by
// the cluster, the schedulers, and the LP formulation.
//
// FlowTime (ICDCS 2018) schedules two resource types, vcores and memory,
// mirroring YARN's container model. The package is written for an arbitrary
// fixed set of resource kinds so that additional dimensions (e.g. network,
// GPU) can be introduced without touching the schedulers.
package resource

import (
	"fmt"
	"strings"
)

// Kind identifies one resource dimension.
type Kind int

// Resource kinds. Enums start at one so the zero value is invalid and
// accidental zero-initialization is caught by Validate.
const (
	// VCores is the number of virtual CPU cores, YARN-style.
	VCores Kind = iota + 1
	// MemoryMB is main memory in mebibytes.
	MemoryMB
)

// NumKinds is the number of resource dimensions in a Vector.
const NumKinds = 2

// String returns the canonical lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case VCores:
		return "vcores"
	case MemoryMB:
		return "memory-mb"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Kinds lists every resource kind in index order.
func Kinds() [NumKinds]Kind {
	return [NumKinds]Kind{VCores, MemoryMB}
}

// Vector is a fixed-size vector with one non-negative integer amount per
// resource kind. The zero value is the empty allocation and is valid.
type Vector [NumKinds]int64

// New returns a vector with the given vcores and memory amounts.
func New(vcores, memoryMB int64) Vector {
	var v Vector
	v[VCores.index()] = vcores
	v[MemoryMB.index()] = memoryMB
	return v
}

func (k Kind) index() int { return int(k) - 1 }

// Get returns the amount of kind k.
func (v Vector) Get(k Kind) int64 { return v[k.index()] }

// With returns a copy of v with kind k set to amount.
func (v Vector) With(k Kind, amount int64) Vector {
	v[k.index()] = amount
	return v
}

// Add returns v + o element-wise.
func (v Vector) Add(o Vector) Vector {
	for i := range v {
		v[i] += o[i]
	}
	return v
}

// Sub returns v - o element-wise. The result may be negative; callers that
// need clamping should use SubClamped.
func (v Vector) Sub(o Vector) Vector {
	for i := range v {
		v[i] -= o[i]
	}
	return v
}

// SubClamped returns max(v-o, 0) element-wise.
func (v Vector) SubClamped(o Vector) Vector {
	for i := range v {
		v[i] -= o[i]
		if v[i] < 0 {
			v[i] = 0
		}
	}
	return v
}

// Scale returns v scaled by the non-negative integer factor n.
func (v Vector) Scale(n int64) Vector {
	for i := range v {
		v[i] *= n
	}
	return v
}

// Min returns the element-wise minimum of v and o.
func (v Vector) Min(o Vector) Vector {
	for i := range v {
		if o[i] < v[i] {
			v[i] = o[i]
		}
	}
	return v
}

// Max returns the element-wise maximum of v and o.
func (v Vector) Max(o Vector) Vector {
	for i := range v {
		if o[i] > v[i] {
			v[i] = o[i]
		}
	}
	return v
}

// Take debits min(request, v) from v and returns it: request's grant of v.
func (v *Vector) Take(request Vector) Vector {
	g := request.Min(*v)
	*v = v.Sub(g)
	return g
}

// IsZero reports whether every component is zero.
func (v Vector) IsZero() bool {
	for _, a := range v {
		if a != 0 {
			return false
		}
	}
	return true
}

// FitsIn reports whether v <= capacity element-wise.
func (v Vector) FitsIn(capacity Vector) bool {
	for i := range v {
		if v[i] > capacity[i] {
			return false
		}
	}
	return true
}

// AnyNegative reports whether any component is negative.
func (v Vector) AnyNegative() bool {
	for _, a := range v {
		if a < 0 {
			return true
		}
	}
	return false
}

// DominantShare returns the maximum over kinds of v[k]/capacity[k], the
// dominant resource share from DRF. Kinds with zero capacity are skipped;
// if every kind has zero capacity the share is 0.
func (v Vector) DominantShare(capacity Vector) float64 {
	share := 0.0
	for i := range v {
		if capacity[i] <= 0 {
			continue
		}
		if s := float64(v[i]) / float64(capacity[i]); s > share {
			share = s
		}
	}
	return share
}

// Validate returns an error if any component is negative.
func (v Vector) Validate() error {
	for i, a := range v {
		if a < 0 {
			return fmt.Errorf("resource: negative %s amount %d", Kind(i+1), a)
		}
	}
	return nil
}

// String renders the vector as "<vcores:4 memory-mb:8192>".
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('<')
	for i, k := range Kinds() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", k, v.Get(k))
	}
	b.WriteByte('>')
	return b.String()
}
