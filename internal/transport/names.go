package transport

// Scheme and transport-label names. Every package that composes
// transports (the scheme table, harness scenarios, the testbed façade,
// cmd tools) refers to these constants instead of scattering string
// literals.
//
// A name is both a key of the scheme table (schemes.New) and, for the
// plain transports, the Flow.Transport label the scheme stamps on the
// flows it starts. The deployment schemes naive/owf label their flows
// "expresspass" (they are ExpressPass under different queue profiles and
// credit rates), and the flexpass ablations label theirs "flexpass".
const (
	// Plain transports (scheme name == flow label).
	SchemeDCTCP       = "dctcp"
	SchemeExpressPass = "expresspass"
	SchemeLayering    = "layering"
	SchemeFlexPass    = "flexpass"
	SchemeHoma        = "homa"
	SchemePHost       = "phost"

	// Deployment schemes of §6.2 (compositions of the above).
	SchemeNaive        = "naive"         // ExpressPass sharing the legacy queue, full-rate credits
	SchemeOWF          = "owf"           // oracle weighted fair queueing
	SchemeFlexPassAltQ = "flexpass-altq" // §4.3 ablation: reactive sub-flow in Q2
	SchemeFlexPassRC3  = "flexpass-rc3"  // §4.3 ablation: RC3-style flow splitting
)

// Scheme option keys understood by the scheme table (passed as the
// SchemeEnv.Options map; harness.Scenario.SchemeOptions feeds it).
const (
	// OptDisableProRetx ("true") ablates FlexPass's proactive
	// retransmission (§4.2).
	OptDisableProRetx = "disable_proretx"
	// OptReactive selects FlexPass's reactive-sub-flow congestion control
	// ("dctcp" — the default — or "reno").
	OptReactive = "reactive"
	// OptPreCreditOnly ("true") restricts FlexPass's reactive sub-flow to
	// the first RTT (Aeolus-style, §7).
	OptPreCreditOnly = "pre_credit_only"
)
