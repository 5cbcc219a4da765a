package workload

import "testing"

// Workload plans are user input (plan files on the flexsim/flexfarm
// command line). The contract under fuzzing: ParsePlan never panics and
// never touches the filesystem; every rejection is a typed *PlanError
// or a wrapped JSON decode error; and an accepted plan must re-validate
// and hash cleanly. Generation is deliberately not fuzzed — its cost
// scales with rate × horizon, so adversarial rates would turn the
// harness into an allocation stress test; plan_test.go covers it.

func FuzzParseWorkloadPlan(f *testing.F) {
	f.Add([]byte(`{"sources":[{"kind":"poisson","cdf":"websearch"},` +
		`{"kind":"incast","fraction":0.1,"flow_size":8000,"coflow":true}]}`))
	f.Add([]byte(`{"name":"t","sources":[` +
		`{"kind":"poisson","tenant":"search","cdf":"websearch","load":0.3},` +
		`{"kind":"lognormal","tenant":"cache","cdf":"cachefollower","load":0.15,"sigma":1.5},` +
		`{"kind":"rpc","tenant":"rpc","fanout":4,"request_size":2000,"response_size":20000,"load":0.05}]}`))
	f.Add([]byte(`{"sources":[{"kind":"poisson","cdf":"websearch","load":0.4,` +
		`"modulate":[{"kind":"flash","at":"1ms","end":"3ms","peak":2.5,"ramp":"250us"}]},` +
		`{"kind":"onoff","cdf":"hadoop","load":0.1,"on":"200us","off":"400us"}]}`))
	f.Add([]byte(`{"sources":[{"kind":"trace","path":"flows.csv"}]}`))
	f.Add([]byte(`{"sources":[{"kind":"rpc","fanout":0,"request_size":-1,"rate":1e309}]}`))
	f.Add([]byte(`{"sources":[{"kind":"onoff","cdf":"hadoop","on":"2 fortnights","off":"1ms"}]}`))
	f.Add([]byte(`{"sources":[{"kind":"poisson","cdf":"websearch",` +
		`"modulate":[{"kind":"diurnal","period":"-5ms","min":2}]}]}`))
	f.Add([]byte(`{"sources":[{"kind":"poisson","cdf":"websearch"}]} {}`))
	f.Add([]byte(`{"sources":[{"kind":"onoff","cdf":"hadoop","on":"NaNus","off":"Infms"}]}`))
	f.Add([]byte(`{"sources":[{"kind":"onoff","cdf":"hadoop","on":"1e30s","off":"1ms"}]}`))
	f.Add([]byte(`{"sources":`))
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
		if err := p.Validate(); err != nil {
			t.Fatalf("ParsePlan accepted a plan Validate rejects: %v", err)
		}
		if p.Hash() == "" {
			t.Fatal("accepted plan hashes to empty string")
		}
	})
}
