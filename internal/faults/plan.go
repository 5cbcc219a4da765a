// Package faults implements deterministic, scripted fault injection for
// the simulated fabric: a Plan is an ordered timeline of typed events —
// link flaps, rate degradation, Gilbert–Elliott burst loss, and
// credit-targeted loss — applied to named ports through sim.Engine
// timers. Plans are data (JSON files or a compact CLI shorthand), so a
// failure scenario is part of the experiment's reproducible inputs:
// same seed + same plan ⇒ bit-identical packet fates, because every
// random loss decision draws from the engine's seeded stream and every
// state change happens at a scripted simulation instant.
package faults

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"flexpass/internal/planspec"
	"flexpass/internal/sim"
)

// Kind names a fault event type.
type Kind string

// Fault event kinds. Interval kinds (LinkDown, RateDegrade, BurstLoss,
// CreditLoss) may carry an End time that schedules the matching clear
// action automatically; the explicit clear kinds (LinkUp, RateRestore)
// exist for plans that script asymmetric or open-ended failures.
const (
	LinkDown    Kind = "link-down"    // port blackholes all traffic
	LinkUp      Kind = "link-up"      // port resumes service
	RateDegrade Kind = "rate-degrade" // port serializes at Fraction of line rate
	RateRestore Kind = "rate-restore" // port returns to full line rate
	BurstLoss   Kind = "burst-loss"   // Gilbert–Elliott loss model on the port
	CreditLoss  Kind = "credit-loss"  // Bernoulli loss on credit packets only
)

// knownKinds gates validation; keep in sync with the constants above.
var knownKinds = map[Kind]bool{
	LinkDown: true, LinkUp: true, RateDegrade: true, RateRestore: true,
	BurstLoss: true, CreditLoss: true,
}

// interval reports whether the kind accepts an End time.
func (k Kind) interval() bool {
	return k == LinkDown || k == RateDegrade || k == BurstLoss || k == CreditLoss
}

// TimeSpec is the shared plan time codec (see internal/planspec): a
// bare JSON number is picoseconds, a string accepts a unit suffix
// ("250us", "2ms", "1.5s"), and marshaling always emits exact
// picoseconds so a plan round-trips losslessly.
type TimeSpec = planspec.TimeSpec

// Event is one scripted fault. Link is a path.Match glob over port names
// (see topo: "sw0->h1", "tor0.0->h0.0.0", "h3:nic"); a pattern may hit
// several ports, and "*" hits everything. Kind-specific fields:
//
//   - RateDegrade: Fraction ∈ (0,1), the share of line rate retained.
//   - CreditLoss: Rate ∈ (0,1], the per-credit drop probability.
//   - BurstLoss: either Rate alone (flat Bernoulli loss) or the
//     Gilbert–Elliott shape — LossBad (default 1), LossGood (default 0),
//     BadLen / GoodLen, the mean burst and gap lengths in packets
//     (defaults 8 and 200; transition probabilities are their inverses).
type Event struct {
	Kind Kind     `json:"kind"`
	Link string   `json:"link"`
	At   TimeSpec `json:"at"`
	// End, when nonzero, schedules the paired clear action (LinkUp,
	// RateRestore, loss model removed) for interval kinds.
	End      TimeSpec `json:"end,omitempty"`
	Fraction float64  `json:"fraction,omitempty"`
	Rate     float64  `json:"rate,omitempty"`
	LossBad  float64  `json:"loss_bad,omitempty"`
	LossGood float64  `json:"loss_good,omitempty"`
	BadLen   float64  `json:"bad_len,omitempty"`
	GoodLen  float64  `json:"good_len,omitempty"`
}

// Plan is an ordered fault timeline. The zero value is an empty plan.
type Plan struct {
	// Name labels the plan in reports and artifacts.
	Name   string  `json:"name,omitempty"`
	Events []Event `json:"events"`
}

// PlanError reports an invalid event in a plan: which event, which
// field, and why. It is the only error class plan validation produces
// for structural problems, so callers can test errors.As against it.
type PlanError struct {
	Index int    // position in Plan.Events
	Field string // offending field name ("kind", "at", ...)
	Msg   string
}

func (e *PlanError) Error() string {
	return fmt.Sprintf("faults: event %d: field %s: %s", e.Index, e.Field, e.Msg)
}

// UnknownLinkError reports a link pattern that matched no port in the
// network the plan was applied to.
type UnknownLinkError struct {
	Pattern string
}

func (e *UnknownLinkError) Error() string {
	return fmt.Sprintf("faults: link pattern %q matches no port", e.Pattern)
}

// Validate checks every event for structural soundness — known kind,
// syntactically valid link glob, sane times and probabilities — and
// checks that LinkDown/LinkUp (and RateDegrade/RateRestore) intervals
// on the same link pattern do not overlap or clear a state that was
// never set. It returns a *PlanError describing the first problem, or
// nil. Validate does not need a network; pattern resolution against
// real ports happens in Apply.
func (p *Plan) Validate() error {
	type toggle struct {
		at   sim.Time
		idx  int
		down bool // engage (true) or clear (false)
	}
	// Per (link, mechanism) timelines for the two stateful toggles.
	downs := map[string][]toggle{}
	rates := map[string][]toggle{}
	for i := range p.Events {
		ev := &p.Events[i]
		if !knownKinds[ev.Kind] {
			return &PlanError{Index: i, Field: "kind", Msg: fmt.Sprintf("unknown kind %q", ev.Kind)}
		}
		if ev.Link == "" {
			return &PlanError{Index: i, Field: "link", Msg: "empty link pattern"}
		}
		if _, err := path.Match(ev.Link, ""); err != nil {
			return &PlanError{Index: i, Field: "link", Msg: fmt.Sprintf("bad pattern: %v", err)}
		}
		if ev.At < 0 {
			return &PlanError{Index: i, Field: "at", Msg: "negative time"}
		}
		if ev.End != 0 {
			if !ev.Kind.interval() {
				return &PlanError{Index: i, Field: "end", Msg: fmt.Sprintf("%s takes no end time", ev.Kind)}
			}
			if ev.End <= ev.At {
				return &PlanError{Index: i, Field: "end", Msg: "end not after at"}
			}
		}
		switch ev.Kind {
		case RateDegrade:
			if ev.Fraction <= 0 || ev.Fraction >= 1 {
				return &PlanError{Index: i, Field: "fraction", Msg: "must be in (0,1)"}
			}
		case CreditLoss:
			if ev.Rate <= 0 || ev.Rate > 1 {
				return &PlanError{Index: i, Field: "rate", Msg: "must be in (0,1]"}
			}
		case BurstLoss:
			for _, f := range []struct {
				name string
				v    float64
			}{{"rate", ev.Rate}, {"loss_bad", ev.LossBad}, {"loss_good", ev.LossGood}} {
				if f.v < 0 || f.v > 1 {
					return &PlanError{Index: i, Field: f.name, Msg: "probability outside [0,1]"}
				}
			}
			if ev.BadLen < 0 || ev.GoodLen < 0 {
				return &PlanError{Index: i, Field: "bad_len", Msg: "burst lengths must be >= 0"}
			}
			if ev.BadLen >= 0 && ev.BadLen != 0 && ev.BadLen < 1 {
				return &PlanError{Index: i, Field: "bad_len", Msg: "mean burst length below one packet"}
			}
			if ev.GoodLen != 0 && ev.GoodLen < 1 {
				return &PlanError{Index: i, Field: "good_len", Msg: "mean gap length below one packet"}
			}
		}
		// Record state toggles for the overlap check.
		switch ev.Kind {
		case LinkDown:
			downs[ev.Link] = append(downs[ev.Link], toggle{ev.At.Time(), i, true})
			if ev.End != 0 {
				downs[ev.Link] = append(downs[ev.Link], toggle{ev.End.Time(), i, false})
			}
		case LinkUp:
			downs[ev.Link] = append(downs[ev.Link], toggle{ev.At.Time(), i, false})
		case RateDegrade:
			rates[ev.Link] = append(rates[ev.Link], toggle{ev.At.Time(), i, true})
			if ev.End != 0 {
				rates[ev.Link] = append(rates[ev.Link], toggle{ev.End.Time(), i, false})
			}
		case RateRestore:
			rates[ev.Link] = append(rates[ev.Link], toggle{ev.At.Time(), i, false})
		}
	}
	check := func(m map[string][]toggle, what string) error {
		for _, ts := range m {
			sort.SliceStable(ts, func(a, b int) bool {
				if ts[a].at != ts[b].at {
					return ts[a].at < ts[b].at
				}
				// Clear before engage at the same instant: back-to-back
				// intervals like [1,2) then [2,3) are legal.
				return !ts[a].down && ts[b].down
			})
			engaged := false
			for _, t := range ts {
				if t.down == engaged {
					field := "at"
					msg := fmt.Sprintf("overlapping %s intervals on link %q", what, p.Events[t.idx].Link)
					if !t.down {
						msg = fmt.Sprintf("%s clears a link that is not %s", what, what)
					}
					return &PlanError{Index: t.idx, Field: field, Msg: msg}
				}
				engaged = t.down
			}
		}
		return nil
	}
	if err := check(downs, "down"); err != nil {
		return err
	}
	return check(rates, "degrade")
}

// End returns the instant the last scripted fault clears: the maximum
// over events of End (for intervals) or At (for point actions and
// open-ended intervals). Recovery-time analysis measures from here.
func (p *Plan) End() sim.Time {
	var end sim.Time
	for i := range p.Events {
		t := p.Events[i].At.Time()
		if e := p.Events[i].End.Time(); e > t {
			t = e
		}
		if t > end {
			end = t
		}
	}
	return end
}

// Hash returns a short, stable content hash of the plan's fault
// timeline — the identity the result lake keys faulted runs on. The
// plan Name is deliberately excluded (renaming a plan file must not
// change the scenario identity), and TimeSpec marshals as exact
// picoseconds, so two plans hash equal iff they script the same
// timeline. A nil or empty plan hashes to "".
func (p *Plan) Hash() string {
	if p == nil || len(p.Events) == 0 {
		return ""
	}
	b, err := json.Marshal(p.Events)
	if err != nil {
		// Events hold only plain values; marshal cannot fail in practice.
		panic(fmt.Sprintf("faults: hashing plan: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// ParsePlan decodes and validates a JSON plan. Unknown fields are
// rejected so typos in plan files fail loudly instead of silently
// producing a clean run.
func ParsePlan(data []byte) (*Plan, error) {
	var p Plan
	if err := planspec.DecodeStrict(data, &p); err != nil {
		return nil, fmt.Errorf("faults: bad plan JSON: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// ParsePlanFile reads and validates the plan in file; a plan that does
// not name itself is named after the file's stem.
func ParsePlanFile(file string) (*Plan, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	p, err := ParsePlan(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	if p.Name == "" {
		p.Name = strings.TrimSuffix(filepath.Base(file), filepath.Ext(file))
	}
	return p, nil
}

// ParseSpec parses the CLI shorthand: comma-separated specs of
// '@'-separated fields ('@' because port names use ':', '-', '.'):
//
//	down@LINK@WINDOW            link down for the window
//	rate@LINK@WINDOW@FRACTION   degraded to FRACTION of line rate
//	burst@LINK@WINDOW[@LOSSBAD[@BADLEN[@GOODLEN]]]
//	credit@LINK@WINDOW@RATE     credit-only Bernoulli loss
//
// WINDOW is START-END or a bare START (open-ended), each side a
// unit-suffixed time ("2ms", "500us"). Example:
//
//	down@sw0->h1@2ms-3ms,burst@tor*@1ms-5ms@1.0@8@200
func ParseSpec(spec string) (*Plan, error) {
	p := &Plan{Name: "spec"}
	for i, raw := range strings.Split(spec, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		f := strings.Split(raw, "@")
		if len(f) < 3 {
			return nil, &PlanError{Index: i, Field: "spec", Msg: fmt.Sprintf("%q needs at least op@link@window", raw)}
		}
		op, link, window := f[0], f[1], f[2]
		at, end, err := planspec.ParseWindow(window)
		if err != nil {
			return nil, &PlanError{Index: i, Field: "window", Msg: err.Error()}
		}
		ev := Event{Link: link, At: TimeSpec(at), End: TimeSpec(end)}
		args := f[3:]
		num := func(j int, def float64) (float64, error) {
			if j >= len(args) {
				return def, nil
			}
			return strconv.ParseFloat(args[j], 64)
		}
		switch op {
		case "down":
			ev.Kind = LinkDown
		case "rate":
			ev.Kind = RateDegrade
			if ev.Fraction, err = num(0, 0); err != nil || len(args) == 0 {
				return nil, &PlanError{Index: i, Field: "fraction", Msg: "rate@ needs a fraction"}
			}
		case "burst":
			ev.Kind = BurstLoss
			if ev.LossBad, err = num(0, 1); err != nil {
				return nil, &PlanError{Index: i, Field: "loss_bad", Msg: err.Error()}
			}
			if ev.BadLen, err = num(1, 0); err != nil {
				return nil, &PlanError{Index: i, Field: "bad_len", Msg: err.Error()}
			}
			if ev.GoodLen, err = num(2, 0); err != nil {
				return nil, &PlanError{Index: i, Field: "good_len", Msg: err.Error()}
			}
		case "credit":
			ev.Kind = CreditLoss
			if ev.Rate, err = num(0, 0); err != nil || len(args) == 0 {
				return nil, &PlanError{Index: i, Field: "rate", Msg: "credit@ needs a loss rate"}
			}
		default:
			return nil, &PlanError{Index: i, Field: "spec", Msg: fmt.Sprintf("unknown op %q", op)}
		}
		p.Events = append(p.Events, ev)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
