// Package fault is the seeded deterministic fault-injection subsystem:
// a Plan describes which links drop packets and which nodes crash for
// windows of virtual time, and an Injector built from the plan hands
// out per-packet drop verdicts and per-node liveness answers.
//
// Determinism is the design constraint. Every drop draws from a
// sim.RNG seeded by an FNV-1a fold of (plan seed, link name), so the
// same plan reproduces the same fault sequence byte-for-byte regardless
// of how many other links exist or in what order they were attached.
// Node windows are pure functions of virtual time and need no
// randomness at all.
//
// The zero-fault fast path is a nil check: consumers hold a
// *LinkInjector that is nil when the plan has no rule for their link,
// and a nil Injector answers "healthy" to every node query. With an
// empty plan no RNG is ever constructed and no allocation happens on
// the packet path, so fault-aware components cost nothing when faults
// are off.
package fault

import "rambda/internal/sim"

// LinkRule describes the fault process of one named link: each packet
// is lost independently with probability Drop.
type LinkRule struct {
	// Link is the exact link name to match (the name passed to
	// interconnect.NewNetLink, e.g. "net:a->b").
	Link string
	// Drop is the probability a packet is lost in flight.
	Drop float64
}

// Window crashes one named node for [From, To) in virtual time: it
// stops answering and loses its volatile state, so it must replay its
// redo log to catch up when it rejoins.
type Window struct {
	Node     string
	From, To sim.Time
}

// Plan is a complete fault schedule. The zero value is the empty plan:
// nothing is ever dropped and every node is always up.
type Plan struct {
	// Seed drives every per-link RNG (folded with the link name).
	Seed uint64
	// Links lists per-link drop rules. At most one rule per link name
	// is honored (the first match wins).
	Links []LinkRule
	// Nodes lists crash windows. Several windows may name the same
	// node.
	Nodes []Window
}

// LinkStats counts what a link's injector actually did.
type LinkStats struct {
	Packets, Drops int64
}

// LinkInjector is the per-link fault process. A nil *LinkInjector is
// the always-clean link and is safe to query.
type LinkInjector struct {
	drop  float64
	rng   *sim.RNG
	stats LinkStats
}

// Drop draws the verdict for the next packet: true when it is lost.
// Every packet of a non-nil injector consumes exactly one draw.
func (l *LinkInjector) Drop() bool {
	if l == nil {
		return false
	}
	l.stats.Packets++
	if l.rng.Float64() < l.drop {
		l.stats.Drops++
		return true
	}
	return false
}

// Stats returns the injector's counters (zero value for nil).
func (l *LinkInjector) Stats() LinkStats {
	if l == nil {
		return LinkStats{}
	}
	return l.stats
}

// Injector is an instantiated Plan: per-link RNG streams plus the node
// window table. A nil *Injector answers every query with "healthy".
type Injector struct {
	links map[string]*LinkInjector
	nodes []Window
}

// New instantiates the plan. Links whose rule never drops get no
// injector (their consumers keep the nil fast path).
func New(p Plan) *Injector {
	inj := &Injector{nodes: p.Nodes}
	for _, r := range p.Links {
		if r.Drop <= 0 {
			continue
		}
		if inj.links == nil {
			inj.links = make(map[string]*LinkInjector, len(p.Links))
		}
		if _, dup := inj.links[r.Link]; dup {
			continue // first rule per link wins
		}
		inj.links[r.Link] = &LinkInjector{drop: r.Drop, rng: sim.NewRNG(foldSeed(p.Seed, r.Link))}
	}
	return inj
}

// Link returns the injector for a named link, or nil when the plan has
// no rule for it — callers keep the nil as their fast-path sentinel.
func (i *Injector) Link(name string) *LinkInjector {
	if i == nil {
		return nil
	}
	return i.links[name]
}

// NodeDown reports whether the node is inside any crash window at the
// given time.
func (i *Injector) NodeDown(node string, at sim.Time) bool {
	if i == nil {
		return false
	}
	for _, w := range i.nodes {
		if w.Node == node && at >= w.From && at < w.To {
			return true
		}
	}
	return false
}

// NodeUpAt returns the earliest time >= at when the node is outside
// every crash window (chained/overlapping windows are walked until a
// gap is found).
func (i *Injector) NodeUpAt(node string, at sim.Time) sim.Time {
	if i == nil {
		return at
	}
	for {
		advanced := false
		for _, w := range i.nodes {
			if w.Node == node && at >= w.From && at < w.To {
				at = w.To
				advanced = true
			}
		}
		if !advanced {
			return at
		}
	}
}

// foldSeed mixes the plan seed with the link name via FNV-1a so every
// link gets an independent deterministic stream.
func foldSeed(seed uint64, name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64) ^ seed
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h
}
