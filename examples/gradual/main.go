// Gradual deployment: the paper's central experiment (Fig 10/12) at small
// scale — transition a Clos fabric from all-DCTCP to FlexPass rack by
// rack, and watch tail latency of small flows improve for upgraded
// traffic without harming legacy traffic. Compare with the naïve
// ExpressPass rollout, which wrecks the legacy tail mid-deployment.
package main

import (
	"fmt"

	"flexpass"
	"flexpass/internal/harness"
	"flexpass/internal/metrics"
)

func main() {
	base := flexpass.NewScenario(false) // scaled-down Clos, web search, 50% load
	base.Duration = 10 * flexpass.Millisecond

	fmt.Println("rolling out rack by rack (0% -> 100%), web search @ 50% load")
	fmt.Printf("%-10s %-6s %-16s %-16s %-14s\n",
		"scheme", "dep", "p99 small legacy", "p99 small new", "avg FCT (all)")

	for _, scheme := range []flexpass.Scheme{flexpass.SchemeNaive, flexpass.SchemeFlexPass} {
		for _, dep := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
			sc := base
			sc.Scheme = scheme
			sc.Deployment = dep
			s := metrics.Summarize(flexpass.Run(sc).Flows.Records)
			fmt.Printf("%-10s %-6.2f %-16v %-16v %-14v\n",
				scheme, dep, s.P99SmallLegacy, s.P99SmallNew, s.MeanFCT)
		}
		fmt.Println()
	}
	_ = harness.SchemeOWF // (see cmd/experiments for the full four-scheme study)
}
