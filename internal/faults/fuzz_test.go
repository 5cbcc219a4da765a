package faults

import (
	"errors"
	"testing"
)

// The fault-plan parsers take user input (plan files, CLI specs). The
// contract under fuzzing: never panic, and every rejection is one of
// the typed error classes (*PlanError, *UnknownLinkError via Apply, or
// a wrapped JSON error from the decoder) — malformed times, overlapping
// intervals, and unknown fields all fail loudly but cleanly. An
// accepted plan must also re-validate, so ParsePlan can never hand out
// a plan that Apply would refuse structurally.

func FuzzParsePlan(f *testing.F) {
	f.Add([]byte(`{"events":[{"kind":"link-down","link":"sw0->h2","at":"1ms","end":"2ms"}]}`))
	f.Add([]byte(`{"name":"x","events":[{"kind":"burst-loss","link":"*","at":0,"end":1,"bad_len":4}]}`))
	f.Add([]byte(`{"events":[{"kind":"rate-degrade","link":"a","at":"1ms","fraction":0.5}]}`))
	f.Add([]byte(`{"events":[{"kind":"link-down","link":"a","at":"1ms","end":"5ms"},` +
		`{"kind":"link-down","link":"a","at":"3ms"}]}`)) // overlapping
	f.Add([]byte(`{"events":[{"kind":"credit-loss","link":"[","at":"-1ms","rate":9}]}`))
	f.Add([]byte(`{"events":[{"kind":"link-down","link":"a","at":"2 fortnights"}]}`))
	f.Add([]byte(`{"events":[{"kind":"link-down","link":"a","at":"NaNus","end":"Infms"}]}`))
	f.Add([]byte(`{"events":[{"kind":"link-down","link":"a","at":"1ms","end":"1e30s"}]}`))
	f.Add([]byte(`{"events":`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(data)
		if err != nil {
			if p != nil {
				t.Fatalf("error %v returned alongside a plan", err)
			}
			return
		}
		// Whatever parses must be internally consistent.
		if err := p.Validate(); err != nil {
			t.Fatalf("ParsePlan accepted a plan Validate rejects: %v", err)
		}
		_ = p.End()
	})
}

func FuzzParseSpec(f *testing.F) {
	f.Add("down@sw0->h2@1ms-2ms")
	f.Add("down@sw0->h2@1ms-2ms,burst@tor*@1ms-5ms@1.0@8@200")
	f.Add("rate@tor0.0<->agg0.0:fwd@2ms-4ms@0.25")
	f.Add("credit@*@1ms-2ms@0.3")
	f.Add("down@a@2ms-1ms")
	f.Add("down@@@@@")
	f.Add("@@@")
	f.Add(",,,")
	f.Add("down@a@1ms-2ms,down@a@1500us-3ms") // overlapping
	f.Add("burst@[@1ms@NaN@-Inf@1e309")
	f.Add("down@tor*@NaNus")
	f.Add("down@tor*@Infms")
	f.Add("down@tor*@1ms-1e30s")
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseSpec(spec)
		if err != nil {
			var pe *PlanError
			if !errors.As(err, &pe) {
				t.Fatalf("ParseSpec(%q) returned untyped error %T: %v", spec, err, err)
			}
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParseSpec accepted a plan Validate rejects: %v", err)
		}
	})
}
