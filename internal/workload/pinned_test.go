package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"flexpass/internal/sim"
	"flexpass/internal/units"
)

// pinnedPlans are the plans TestSourceFlowsPinned generates: every
// source kind alone, the explicit-rate, response-CDF and σ = 0 variants,
// a five-kind mix, a mix carrying every modulator, and the legacy plans.
var pinnedPlans = []struct {
	name string
	plan func() *Plan
}{
	{"poisson", planJSON(`{"sources":[{"kind":"poisson","cdf":"cachefollower","load":0.6}]}`)},
	{"onoff", planJSON(`{"sources":[{"kind":"onoff","cdf":"hadoop","load":0.3,"on":"200us","off":"400us"}]}`)},
	{"lognormal", planJSON(`{"sources":[{"kind":"lognormal","cdf":"cachefollower","load":0.3,"sigma":1.2}]}`)},
	{"lognormal-sigma0", planJSON(`{"sources":[{"kind":"lognormal","cdf":"websearch","load":0.3}]}`)},
	{"incast", planJSON(`{"sources":[{"kind":"incast","fraction":0.1,"flow_size":8000}]}`)},
	{"incast-rate", planJSON(`{"sources":[{"kind":"incast","rate":900,"flow_size":4000,"flows_per_sender":2,"coflow":true}]}`)},
	{"rpc", planJSON(`{"sources":[{"kind":"rpc","fanout":4,"request_size":2000,"response_size":20000,"load":0.05}]}`)},
	{"rpc-rate", planJSON(`{"sources":[{"kind":"rpc","fanout":3,"request_size":1500,"response_size":9000,"rate":2500}]}`)},
	{"rpc-cdf", planJSON(`{"sources":[{"kind":"rpc","fanout":5,"request_size":1000,"response_cdf":"hadoop","load":0.05}]}`)},
	{"mix", planJSON(`{"sources":[
		{"kind":"poisson","tenant":"bg","cdf":"websearch","load":0.3},
		{"kind":"onoff","cdf":"hadoop","load":0.1,"on":"200us","off":"400us"},
		{"kind":"lognormal","tenant":"cache","cdf":"cachefollower","load":0.1,"sigma":1.5},
		{"kind":"incast","fraction":0.1,"flow_size":8000,"coflow":true},
		{"kind":"rpc","tenant":"rpc","fanout":4,"request_size":2000,"response_size":20000,"load":0.05}]}`)},
	{"modulated", planJSON(`{"sources":[
		{"kind":"poisson","cdf":"websearch","load":0.3,
		 "modulate":[{"kind":"flash","at":"2ms","end":"6ms","peak":2.5,"ramp":"500us"}]},
		{"kind":"onoff","cdf":"hadoop","load":0.1,"on":"200us","off":"400us",
		 "modulate":[{"kind":"diurnal","period":"4ms","min":0.2}]},
		{"kind":"incast","fraction":0.05,"flow_size":8000,"coflow":true,
		 "modulate":[{"kind":"ramp","from":0.5,"to":1.5}]},
		{"kind":"rpc","fanout":3,"request_size":2000,"response_cdf":"cachefollower","load":0.05,
		 "modulate":[{"kind":"flash","at":"1ms","end":"5ms","peak":3},{"kind":"diurnal","period":"3ms","min":0.4}]}]}`)},
	{"legacy", func() *Plan { return LegacyPlan(WebSearch, 0) }},
	{"legacy-incast", func() *Plan { return LegacyPlan(WebSearch, 0.1) }},
}

func planJSON(js string) func() *Plan {
	return func() *Plan {
		p, err := ParsePlan([]byte(js))
		if err != nil {
			panic(err)
		}
		return p
	}
}

// pinnedEnvs are a 48-host Clos of six racks and a 12-host fabric
// without a rack map (no rack-crossing correction).
var pinnedEnvs = []struct {
	name string
	env  Env
}{
	{"48h6r", Env{Hosts: 48, RackOf: racksOf(48, 8), UplinkCapacity: 6 * 2 * 40 * units.Gbps, Load: 0.5, Duration: 8 * sim.Millisecond}},
	{"12h", Env{Hosts: 12, UplinkCapacity: 80 * units.Gbps, Load: 0.4, Duration: 8 * sim.Millisecond}},
}

func racksOf(hosts, perRack int) []int {
	r := make([]int, hosts)
	for i := range r {
		r[i] = i / perRack
	}
	return r
}

// flowsDigest is the flow count and the sha256 of the flows' JSON lines.
func flowsDigest(flows []FlowSpec) (int, string) {
	h := sha256.New()
	for _, f := range flows {
		b, err := json.Marshal(f)
		if err != nil {
			panic(err)
		}
		h.Write(append(b, '\n'))
	}
	return len(flows), hex.EncodeToString(h.Sum(nil))
}

type pinnedRow struct {
	flows  int
	digest string
}

// sourceFlowsPinned is every (plan, env, seed) row's flows.
var sourceFlowsPinned = map[string]pinnedRow{
	"poisson/48h6r/1":          {1168, "c759e65dcbc06a76fb9b4f456b384986f1d9fa90fa76fa45f73af1f3ce6a9967"},
	"poisson/48h6r/2":          {1148, "cdb92768b6ebd68b5b0fa3d1a600747ccf9c8123d14ed62457be81091e83854c"},
	"poisson/12h/1":            {176, "9a5ca073fb753d895d7f3552e60793f2b37ad8f14895971b1f032d89f3ece94a"},
	"poisson/12h/2":            {170, "4f65116af8e17f4b99b3ac5c4134517661fec3e8e39e4b7ac7cf906d42aa51d2"},
	"onoff/48h6r/1":            {1842, "e30f3520bd6057511b634ea6cbbac5ff34bd39abea66da4e7937e9256f8b1449"},
	"onoff/48h6r/2":            {1354, "e53748d164a844579305fa204abd62681829bd8cea7eb665cad864c1b9132463"},
	"onoff/12h/1":              {285, "1383a40b0c28e4ccfd93809c2ea503945681f9462b11a75dd184ea0970849049"},
	"onoff/12h/2":              {323, "9351d53e68d0f1b4fe0c52bba44d5c59483679313652af8f4f5fd40361e0fc8e"},
	"lognormal/48h6r/1":        {525, "ab31cef36881ccca1050d56305e6f23a297ce53609c5359536abb9718bb7627a"},
	"lognormal/48h6r/2":        {546, "164f34e8e216319b353f7ad97d142ac3c7d6ca21ed58553bbbee50b36685282e"},
	"lognormal/12h/1":          {91, "6b5f163c592fb5fbbb90eff026a0801b688e8c670cc9408b727ac8d0c23917ac"},
	"lognormal/12h/2":          {67, "fe025b988d7126c95732f62b3f2edac3db830d88902af82333a480f4774fbdf6"},
	"lognormal-sigma0/48h6r/1": {98, "c04f25d776dc5f4982b3c26150917fa17e58b9ae1c431c693cc65b825d4f2f94"},
	"lognormal-sigma0/48h6r/2": {98, "b1589ed8ebf8efd8550ba1d2247bf2eeb8148dad446f8fb15a23181db1fdfa2c"},
	"lognormal-sigma0/12h/1":   {14, "d7528cfccc6e65f5664dd4987bfee4ec129d600ccc86f221cd5dc06dbbdef8c0"},
	"lognormal-sigma0/12h/2":   {14, "bf052a4b7b7e04fc73d99771f5ab09ec5e9d7180804624f9b10e7509f453fa3f"},
	"incast/48h6r/1":           {3572, "6c8b939db6633c793fed5b6c6d4ec56f2c997ce2c30857e4ae08a8799a290f16"},
	"incast/48h6r/2":           {3384, "cf0b4d6f3e38e00b06a3ee7bc4fad9f9adb555b68029d25a1a41f90cf62f2b5d"},
	"incast/12h/1":             {616, "73f6aea4a99132a25b8062029a5e15c62d91f6504ca7a0fa4b3096532963d671"},
	"incast/12h/2":             {572, "495c5bdcb5e7598fe1a1da6baeb646f7d735eb58aad13549ca708c745b980741"},
	"incast-rate/48h6r/1":      {1128, "6dd4d05ad76cab51c22b476088bb6ed7b437d5b8a76779b1c3af102afecb28c8"},
	"incast-rate/48h6r/2":      {940, "67a5c40df26e4c154faaf81fcdd1006ab70bfeb70f93041c3555a6f5d863896f"},
	"incast-rate/12h/1":        {264, "c904a5ee0cbeb8aab5eafd67686251b5a668cd8a3576dd9dcadc75ecfb11cc7d"},
	"incast-rate/12h/2":        {220, "f8619038300fe16c65f50b7b65d7f9ab88ba954ba819439230cca074f07abda0"},
	"rpc/48h6r/1":              {2552, "be4e6937d11480f93c931d8a576368a359766eea8a3a959fa076359733e8ed07"},
	"rpc/48h6r/2":              {2232, "60c4b66feeb37be169f20813047a7791a0ec23fe273db699d73f8995d5d11965"},
	"rpc/12h/1":                {320, "6739a6463b850026bb76d63d3a5b7c5a54e6bbc721bb2f67dbbe58f2d2de3603"},
	"rpc/12h/2":                {376, "711d4f27370e599331043994846a8f4d84efbff66f7f95890e803ff551cc61ff"},
	"rpc-rate/48h6r/1":         {144, "69328cb62fb16acf3077f74d29e2f5ffea4c3f991ba89f484ed9ec198bb90412"},
	"rpc-rate/48h6r/2":         {162, "428226d5a9e192da28ec4a26cb1c2b98d22552c296a927f0da9c1417249ff1f6"},
	"rpc-rate/12h/1":           {120, "055176b756442749c3af250240da37b836c3bca5edd6e390da1c50dd1349d1b5"},
	"rpc-rate/12h/2":           {156, "34bf5b66c765631179931a8d2a9616ba67b0663a8abf55407eb770be2e557a06"},
	"rpc-cdf/48h6r/1":          {520, "c7ffa903c3752369839f364ae95e46097dfb202389a3da2f906c15f6b0a78e6b"},
	"rpc-cdf/48h6r/2":          {570, "c6b68f0031212cc665820960fef772535529f9ce30d75f753bd1439889c0d4e0"},
	"rpc-cdf/12h/1":            {170, "4a40a9cba51926d6f3b877f9ee1c00184c8d1705262305291ab21d69c3e638a6"},
	"rpc-cdf/12h/2":            {110, "e6a5696dda1a5efd3fa43a06a1b27fbb7ab4374cfe70c457b63cc2e78b5eca7f"},
	"mix/48h6r/1":              {5919, "7290e2cdfd962193cd00a6098ff9c4f4f2f106294ece750db226fb21a56c9ac4"},
	"mix/48h6r/2":              {7065, "2c078eb7f14c3c75ed6d7a1ae69011ad05c33d66e7ecf3ed22d1d23c71c66e8a"},
	"mix/12h/1":                {1324, "272c7bc3677cf51b0376af8b438653a71f21ba0e5f00b3e2504f32b0b0da4a89"},
	"mix/12h/2":                {966, "a20f95aef312580c277105c5745909d4499dae51f9d6005ec3d9e3b424e8cea5"},
	"modulated/48h6r/1":        {3228, "2f20f3cde936b61864516b664433c7acfc8d4e80dc87d14f1d3d8699855a304d"},
	"modulated/48h6r/2":        {2486, "1ca95203514e811a36cf9056deeb20f92fa2b7cfb6fb276cff514dfb928f5fc6"},
	"modulated/12h/1":          {275, "ab0afb34a5eb81e011e85242ed58a47e09d36a58a8bb10e5db239ff92be15477"},
	"modulated/12h/2":          {505, "68a63164b3d1d4cb6d61d2544c656524c262b4788cc51cd5104b7552a98ae851"},
	"legacy/48h6r/1":           {176, "1173e2b16507c765b644c1969ba5ffaeec0a4e88c05a77a375ef92f0323809b8"},
	"legacy/48h6r/2":           {169, "b28eac815e56aeb2620681962d4411b58bda40a040ccc31555ac7c1ecdee5254"},
	"legacy/12h/1":             {16, "b5f1e406fd81238fff609ddeaa9d715dbde19303270da3481cc197b78c94af91"},
	"legacy/12h/2":             {17, "1fd1b05a4622b8fdf3281a2436882228d38487b7b62031103e4dd10524d60767"},
	"legacy-incast/48h6r/1":    {2620, "0ac384ee9d0aced785fc8002b922d554f978a80cab2a01cecd3836614d160a9f"},
	"legacy-incast/48h6r/2":    {4117, "8488a08e8dba8e06a2fd191dfba9e6085e09d8b2b5c1f0464ffbfa83b07a90b0"},
	"legacy-incast/12h/1":      {324, "26e342d42eb6af8a3a239d09b9372e5dabda3c11f1da59897b995db8c3b64374"},
	"legacy-incast/12h/2":      {545, "4de3fe16753b076392af92818932c12259de38131d592c1359876bdac5eee1b9"},
}

// TestSourceFlowsPinned: every generated flow of every source kind,
// modulator and calibration path, pinned per (plan, env, seed). A row
// that moves means a generator draws, calibrates or thins differently.
func TestSourceFlowsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("flow digests recorded on amd64; got %s", runtime.GOARCH)
	}
	for _, p := range pinnedPlans {
		for _, e := range pinnedEnvs {
			for _, seed := range []int64{1, 2} {
				name := fmt.Sprintf("%s/%s/%d", p.name, e.name, seed)
				n, digest := flowsDigest(mustGenerate(t, p.plan(), e.env, seed))
				if got, want := (pinnedRow{n, digest}), sourceFlowsPinned[name]; got != want {
					t.Errorf("%s: the generated flows changed; the row is now\n\t%q: {%d, %q},", name, name, n, digest)
				}
			}
		}
	}
}
