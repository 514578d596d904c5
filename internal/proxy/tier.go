//go:build linux

package proxy

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/sysfault"
)

// Tier runs N independent proxy Server instances — one event loop, one
// epoll fd, one upstream pool each — sharing a single listening port
// via SO_REUSEPORT, so the kernel hashes incoming connections across
// the members with no user-space handoff at all. This is the sharded
// arrangement of the serving tier, mirroring core's N-reactor mode.
//
// Each member is a full shard: it keeps its own backend health state,
// its own upstream sockets, and its own prober (jittered by a
// member-distinct seed), exactly as N separate proxy processes behind
// one port would. Member i draws syscall-fault decisions from sysfault
// lane i (member 0 stays on the legacy lane-0 stream, so a one-member
// tier replays byte-identically with a standalone Server) and records
// phase latencies into per-shard obs blocks that the plane merges at
// read time.
//
// If the kernel refuses SO_REUSEPORT the constructor degrades to a
// single member on a plain listener (AcceptMode reports which).
type Tier struct {
	members []*Server
	port    int
	mode    string
}

// NewTier builds a tier of shards members from cfg. cfg.Shard,
// cfg.Lane and cfg.ReusePort are owned by the tier and overwritten
// per member; every other field is shared verbatim.
func NewTier(cfg Config, shards int) (*Tier, error) {
	if shards < 1 {
		return nil, fmt.Errorf("proxy: tier needs at least 1 shard, got %d", shards)
	}
	if shards > sysfault.MaxLanes {
		return nil, fmt.Errorf("proxy: %d shards exceeds the %d supported fault lanes", shards, sysfault.MaxLanes)
	}
	// single is the one-member tier on a plain listener: bit-for-bit a
	// standalone Server.
	single := func() (*Tier, error) {
		cfg.Shard, cfg.Lane, cfg.ReusePort = 0, 0, false
		s, err := NewServer(cfg)
		if err != nil {
			return nil, err
		}
		return &Tier{members: []*Server{s}, port: s.Port(), mode: "single"}, nil
	}
	if shards == 1 {
		return single() // one member needs no port sharing
	}
	t := &Tier{mode: "reuseport"}
	for i := 0; i < shards; i++ {
		mc := cfg
		mc.Shard = i
		mc.Lane = sysfault.Lane(i)
		mc.ReusePort = true
		// Distinct probe jitter per member, still seed-deterministic.
		mc.ProbeSeed = cfg.ProbeSeed + uint64(i)*0x9e3779b97f4a7c15
		if i > 0 {
			mc.Port = t.port // later members join the first one's port
		}
		s, err := NewServer(mc)
		if err != nil {
			if i == 0 {
				// Kernel without SO_REUSEPORT: degrade to one member
				// rather than fail the tier.
				return single()
			}
			t.closeAll()
			return nil, fmt.Errorf("proxy: tier shard %d: %w", i, err)
		}
		t.members = append(t.members, s)
		t.port = t.members[0].Port()
	}
	return t, nil
}

// closeAll tears down partially-constructed members (pre-Start).
func (t *Tier) closeAll() {
	for _, s := range t.members {
		s.Stop()
	}
}

// Members returns the live member servers (for stats and tests).
func (t *Tier) Members() []*Server { return t.members }

// NumShards reports the member count actually running.
func (t *Tier) NumShards() int { return len(t.members) }

// AcceptMode reports how connections reach members: "reuseport"
// (kernel hashing across N listeners) or "single" (one member).
func (t *Tier) AcceptMode() string { return t.mode }

// Port returns the shared data-plane port.
func (t *Tier) Port() int { return t.port }

// Addr returns the shared data-plane address.
func (t *Tier) Addr() string { return fmt.Sprintf("127.0.0.1:%d", t.port) }

// Start launches every member's event loop and probers.
func (t *Tier) Start() error {
	for i, s := range t.members {
		if err := s.Start(); err != nil {
			for _, prev := range t.members[:i] {
				prev.Stop()
			}
			return fmt.Errorf("proxy: tier shard %d: %w", i, err)
		}
	}
	return nil
}

// Stop tears every member down immediately.
func (t *Tier) Stop() {
	for _, s := range t.members {
		s.Stop()
	}
}

// Drain drains all members concurrently within one shared budget and
// reports whether every member finished cleanly.
func (t *Tier) Drain(timeout time.Duration) bool {
	done := make(chan bool, len(t.members))
	for _, s := range t.members {
		go func(s *Server) { done <- s.Drain(timeout) }(s)
	}
	clean := true
	for range t.members {
		if !<-done {
			clean = false
		}
	}
	return clean
}

// Stats sums the member snapshots field by field. Every field is a
// plain additive int64 counter (ConnsOpen included — each member
// counts only its own open downstream sockets), so the merge is exact,
// not approximate, and a new counter is merged without code here.
func (t *Tier) Stats() Stats {
	var sum Stats
	out := reflect.ValueOf(&sum).Elem()
	for _, s := range t.members {
		st := reflect.ValueOf(s.Stats())
		for i := 0; i < st.NumField(); i++ {
			out.Field(i).SetInt(out.Field(i).Int() + st.Field(i).Int())
		}
	}
	return sum
}

// BackendStats merges per-member backend views by name: counters sum;
// Inflight/Open/Idle sum (each member owns disjoint sockets); Healthy
// means healthy on every member, since any one ejection diverts that
// member's share of traffic.
func (t *Tier) BackendStats() []BackendStats {
	if len(t.members) == 0 {
		return nil
	}
	base := t.members[0].Backends()
	out := make([]BackendStats, len(base))
	for i, b := range base {
		out[i] = b.Stats()
	}
	for _, s := range t.members[1:] {
		for i, b := range s.Backends() {
			st := b.Stats()
			m := &out[i]
			m.Healthy = m.Healthy && st.Healthy
			m.Inflight += st.Inflight
			m.Open += st.Open
			m.Idle += st.Idle
			m.Relayed += st.Relayed
			m.Relayed503 += st.Relayed503
			m.Errors += st.Errors
			m.Dials += st.Dials
			m.Reuses += st.Reuses
			m.Probes += st.Probes
			m.ProbeFails += st.ProbeFails
			m.Ejections += st.Ejections
			m.Readmissions += st.Readmissions
		}
	}
	return out
}
