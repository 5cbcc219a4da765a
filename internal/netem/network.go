package netem

import (
	"flexpass/internal/sim"
	"flexpass/internal/units"
)

// Network is a container for the simulated fabric: the engine plus every
// node, with stable IDs assigned in construction order, and every egress
// port, numbered as it joins (Port.Rank). It owns what the fabric keeps
// per engine its nodes run on: the packet free list, and the slab its
// ports and hosts are carved from (NewPort, NewHost).
type Network struct {
	Eng      *sim.Engine
	Hosts    []*Host
	Switches []*Switch
	nodes    map[NodeID]Node
	nextID   NodeID
	links    uint32
	engines  map[*sim.Engine]*perEngine
}

// perEngine is what a Network keeps for one engine: only that engine's
// goroutine touches it, or anything carved from it, while a run executes.
type perEngine struct {
	pool PacketPool
	slab slab
}

// NewNetwork creates an empty network bound to eng.
func NewNetwork(eng *sim.Engine) *Network {
	return &Network{Eng: eng, nodes: make(map[NodeID]Node), engines: make(map[*sim.Engine]*perEngine)}
}

// on returns what the network keeps for eng.
func (n *Network) on(eng *sim.Engine) *perEngine {
	pe := n.engines[eng]
	if pe == nil {
		pe = &perEngine{slab: chunked()}
		n.engines[eng] = pe
	}
	return pe
}

// pool returns the free list shared by the nodes eng drives.
func (n *Network) pool(eng *sim.Engine) *PacketPool { return &n.on(eng).pool }

// NewPort builds an egress port as the package's NewPort does, carved
// from the slab of eng, the engine the port runs on. It joins the network
// with the node that adds it (Switch.AddPort, AddHost).
func (n *Network) NewPort(eng *sim.Engine, name string, rate units.Rate, prop sim.Time, cfg PortConfig, shared *SharedBuffer) *Port {
	return n.on(eng).slab.port(eng, name, rate, prop, cfg, shared)
}

// NewHost builds a host as the package's NewHost does, carved from the
// slab of eng; AddHost registers it.
func (n *Network) NewHost(eng *sim.Engine, id NodeID, name string, nic *Port, delay sim.Time) *Host {
	return n.on(eng).slab.host(eng, id, name, nic, delay)
}

// Frames is the frame-balance oracle's two sides: the frames this
// network's pools have handed out (Fresh, summed over its engines), and
// the frames it holds — on a free list, in a port queue, on a wire or
// waiting out a host delay. Once its engines stop, the two differ only by
// frames handed to something outside the network, a shard cut's hand-off
// (shard.Runtime.InFlight), and by frames leaked. Call it only while no
// engine of the network runs.
func (n *Network) Frames() (fresh, held int64) {
	for _, pe := range n.engines {
		fresh += pe.pool.Fresh
		held += chainLen(pe.pool.free)
	}
	n.EachPort(func(p *Port) {
		for i := range p.queues {
			held += chainLen(p.queues[i].pkts.head)
		}
		held += chainLen(p.wire.head)
	})
	for _, h := range n.Hosts {
		held += chainLen(h.delayed.head)
	}
	return fresh, held
}

// AllocID hands out the next node ID, densely from 0: switches index
// their route tables by it.
func (n *Network) AllocID() NodeID {
	id := n.nextID
	n.nextID++
	return id
}

// number gives p the next link number, which keys its rank and stream.
func (n *Network) number(p *Port) {
	n.links++
	p.link, p.rng = n.links, p.eng.Stream(uint64(n.links))
}

// AddHost registers a host, numbering its NIC, and hands it its pool.
func (n *Network) AddHost(h *Host) {
	n.number(h.nic)
	h.SetPool(n.pool(h.eng))
	n.Hosts = append(n.Hosts, h)
	n.nodes[h.NodeID()] = h
}

// AddSwitch registers a switch, numbers its ports, present and future, and
// hands it its engine's packet pool.
func (n *Network) AddSwitch(s *Switch) {
	s.net = n
	for _, p := range s.ports {
		n.number(p)
	}
	s.SetPool(n.pool(s.eng))
	n.Switches = append(n.Switches, s)
	n.nodes[s.NodeID()] = s
}

// Node returns the node with the given ID, or nil.
func (n *Network) Node(id NodeID) Node { return n.nodes[id] }

// Host returns host i (panics if out of range).
func (n *Network) Host(i int) *Host { return n.Hosts[i] }

// EachPort visits every egress port in the network — switch egresses
// first (switch registration order, then port order), host NICs after —
// a deterministic order the fault layer relies on when one link pattern
// matches several ports.
func (n *Network) EachPort(f func(*Port)) {
	for _, s := range n.Switches {
		for _, p := range s.ports {
			f(p)
		}
	}
	for _, h := range n.Hosts {
		f(h.nic)
	}
}

// FindPort returns the port with the exact name, or nil.
func (n *Network) FindPort(name string) *Port {
	var found *Port
	n.EachPort(func(p *Port) {
		if found == nil && p.name == name {
			found = p
		}
	})
	return found
}

// PortsTo returns every egress port that delivers directly to the node
// with the given ID (the last hop toward a host), in EachPort order.
func (n *Network) PortsTo(id NodeID) []*Port {
	var out []*Port
	n.EachPort(func(p *Port) {
		if peer := p.Peer(); peer != nil && peer.NodeID() == id {
			out = append(out, p)
		}
	})
	return out
}
