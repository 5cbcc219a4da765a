package netem

import (
	"fmt"
	"slices"

	"flexpass/internal/chunks"
	"flexpass/internal/sim"
)

// Switch forwards packets to egress ports using destination-based routes
// with ECMP. All egress ports of a switch share its buffer pool.
//
// The route table is dense, indexed by destination id (Network.AllocID
// hands ids out from 0): routes[dst] indexes dst's ECMP group, and group 0
// is the empty set, the entry of every destination without a route.
// Groups are interned, so a Clos switch holds one group per distinct port
// sequence (each downlink, one uplink set), not one set per destination;
// a group never changes once built, which is what keeps one destination's
// AddRoute from reaching another's. Interned groups are carved from
// members, one array as long as the port list once GrowRoutes sized it.
type Switch struct {
	id      NodeID
	name    string
	eng     *sim.Engine
	ports   []*Port
	routes  []int32
	groups  [][]*Port
	members chunks.Of[*Port]
	grow    []*Port // AddRoute's scratch set, when it extends a route
	shared  *SharedBuffer
	pool    *PacketPool // handed to every egress port; nil outside a Network
	net     *Network    // numbers every egress port; nil outside a Network

	// RxPackets counts packets entering the switch.
	RxPackets int64
}

// NewSwitch creates a switch with the given shared buffer (may be nil for
// an output-queued switch with per-queue caps only).
func NewSwitch(eng *sim.Engine, id NodeID, name string, shared *SharedBuffer) *Switch {
	return &Switch{
		id:     id,
		name:   name,
		eng:    eng,
		groups: [][]*Port{nil},
		shared: shared,
	}
}

// NodeID implements Node.
func (s *Switch) NodeID() NodeID { return s.id }

// Name returns the switch's label.
func (s *Switch) Name() string { return s.name }

// Shared returns the switch's buffer pool.
func (s *Switch) Shared() *SharedBuffer { return s.shared }

// AddPort registers an egress port with the switch.
func (s *Switch) AddPort(p *Port) {
	p.SetOwner(s.id)
	p.pool = s.pool
	if s.net != nil {
		s.net.number(p)
	}
	s.ports = append(s.ports, p)
}

// GrowPorts makes room for n more egress ports, so a builder that knows
// the switch's degree sizes its port list once.
func (s *Switch) GrowPorts(n int) {
	// One allocation: slices.Grow's append of a make is two under -race.
	ports := make([]*Port, len(s.ports), len(s.ports)+n)
	copy(ports, s.ports)
	s.ports = ports
}

// GrowRoutes makes room for routes to the node ids below n and for a group
// per port of the list GrowPorts sized, so a builder that knows the
// fabric's node count and the switch's degree routes without growing a
// table: interned groups are carved from one array as long as the port
// list, which holds them all when each port is in one group (its
// downlink's, or one uplink set), as in every fabric of package topo.
func (s *Switch) GrowRoutes(n int) {
	// make and copy, not slices.Grow, for GrowPorts's reason.
	routes := make([]int32, len(s.routes), max(n, len(s.routes)))
	copy(routes, s.routes)
	s.routes = routes
	groups := make([][]*Port, len(s.groups), len(s.groups)+cap(s.ports))
	copy(groups, s.groups)
	s.groups = groups
	s.members = chunks.Sized[*Port](cap(s.ports), cap(s.ports))
}

// Ports returns the switch's egress ports in registration order.
func (s *Switch) Ports() []*Port { return s.ports }

// AddRoute appends egress choices for dst. Calling it repeatedly grows the
// ECMP set; the order of additions is part of the deterministic config.
// It never changes the set of any other destination. dst indexes the
// table, so it must not be negative.
func (s *Switch) AddRoute(dst NodeID, ports ...*Port) {
	// slices.Grow, not append(routes, make(…)...), which -race builds do
	// not fuse: its make was a heap object per new destination. The table
	// never shrinks, so what lies past its length is still zero.
	if n := int(dst) + 1; n > len(s.routes) {
		s.routes = slices.Grow(s.routes, n-len(s.routes))[:n]
	}
	set := ports
	if g := s.routes[dst]; g != 0 {
		s.grow = append(append(s.grow[:0], s.groups[g]...), ports...)
		set = s.grow
	}
	s.routes[dst] = s.intern(set)
}

// intern returns the index of the group equal to set, adding a copy
// carved from members when there is none. A switch has about as many
// groups as ports, so a scan is build-time cost only.
func (s *Switch) intern(set []*Port) int32 {
	for i, g := range s.groups {
		if slices.Equal(g, set) {
			return int32(i)
		}
	}
	g := s.members.Take(len(set))
	copy(g, set)
	s.groups = append(s.groups, g)
	return int32(len(s.groups) - 1)
}

// Receive implements Node: route and enqueue.
func (s *Switch) Receive(pkt *Packet) {
	s.RxPackets++
	var g int32
	if uint(pkt.Dst) < uint(len(s.routes)) {
		g = s.routes[pkt.Dst]
	}
	choices := s.groups[g]
	switch len(choices) {
	case 0:
		panic(fmt.Sprintf("netem: switch %s has no route to node %d", s.name, pkt.Dst))
	case 1:
		choices[0].Send(pkt)
	default:
		idx := ecmpHash(pkt.Src, pkt.Dst, pkt.Flow) % uint64(len(choices))
		choices[idx].Send(pkt)
	}
}

// ecmpHash is a symmetric flow hash: it maps a flow and its reverse
// direction (ACKs, credits) to the same value, which the paper's ECMP
// configuration ("symmetric hash") requires so that ExpressPass credits and
// data traverse the same links in opposite directions.
func ecmpHash(src, dst NodeID, flow uint64) uint64 {
	lo, hi := src, dst
	if lo > hi {
		lo, hi = hi, lo
	}
	// FNV-1a over the three values.
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(uint32(lo)))
	mix(uint64(uint32(hi)))
	mix(flow)
	return h
}
