package netem

import (
	"flexpass/internal/chunks"
	"flexpass/internal/sim"
	"flexpass/internal/units"
)

// slab carves ports, their queue state and hosts from shared arrays, as
// PacketPool carves frames: building a fabric then costs a few
// allocations per array, not several per port. A Network keeps one per
// engine (see perEngine), so an array only ever holds state that one
// shard goroutine writes, and no cache line is shared between shards.
// The zero slab carves every run as an array of its own: NewPort and
// NewHost build a standalone node through it.
type slab struct {
	ports  chunks.Of[Port]
	queues chunks.Of[queue]
	bands  chunks.Of[band]
	refs   chunks.Of[*queue] // every band's queues, one sub-slice per band
	hosts  chunks.Of[Host]
}

// slabMin and slabMax bound the arrays a Network's slab makes: they
// double from slabMin elements to slabMax, so a testbed of a few ports
// wastes little and a Clos makes a few dozen arrays per engine.
const (
	slabMin = 8
	slabMax = 64
)

// chunked returns a slab whose arrays start at slabMin elements.
func chunked() slab {
	return slab{
		ports:  chunks.Sized[Port](slabMin, slabMax),
		queues: chunks.Sized[queue](slabMin, slabMax),
		bands:  chunks.Sized[band](slabMin, slabMax),
		refs:   chunks.Sized[*queue](slabMin, slabMax),
		hosts:  chunks.Sized[Host](slabMin, slabMax),
	}
}

// port builds an egress port, its queues, bands and band array carved
// from s; NewPort documents the arguments.
func (s *slab) port(eng *sim.Engine, name string, rate units.Rate, prop sim.Time, cfg PortConfig, shared *SharedBuffer) *Port {
	if len(cfg.Queues) == 0 {
		panic("netem: port with no queues")
	}
	p := &s.ports.Take(1)[0]
	p.eng, p.name, p.rate, p.effRate, p.prop = eng, name, rate, rate, prop
	p.classify, p.shared = cfg.Classify, shared
	p.queues = s.queues.Take(len(cfg.Queues))
	maxBand := 0
	for i, qc := range cfg.Queues {
		initQueue(&p.queues[i], i, qc)
		maxBand = max(maxBand, qc.Band)
	}
	// Every band's queues are a sub-slice of one array.
	p.bands = s.bands.Take(maxBand + 1)
	all := s.refs.Take(len(p.queues))[:0]
	for b := range p.bands {
		from := len(all)
		for i := range p.queues {
			if p.queues[i].cfg.Band == b {
				all = append(all, &p.queues[i])
			}
		}
		p.bands[b].qs = all[from:]
	}
	p.txDoneFn = p.kick
	p.deliverFn = p.deliverHead
	p.wakeFn = p.wake
	p.compTx = eng.Component("netem/tx")
	p.compDeliver = eng.Component("netem/deliver")
	p.compPacing = eng.Component("netem/pacing")
	return p
}

// host builds a host carved from s; NewHost documents the arguments.
func (s *slab) host(eng *sim.Engine, id NodeID, name string, nic *Port, delay sim.Time) *Host {
	nic.SetOwner(id)
	h := &s.hosts.Take(1)[0]
	h.id, h.name, h.eng, h.nic, h.delay = id, name, eng, nic, delay
	h.sendFn = h.sendNext
	h.comp = eng.Component("netem/host")
	return h
}
