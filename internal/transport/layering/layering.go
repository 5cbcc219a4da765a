// Package layering implements the LY baseline (§6.2, ExpressPass+ [45]):
// ExpressPass credit scheduling gated by a DCTCP-adjusted window, with
// data and legacy traffic sharing one queue. A credit may only trigger a
// transmission when the window has room; otherwise the credit is wasted.
//
// It is a thin configuration of the expresspass package, which hosts the
// layered sender logic.
package layering

import (
	"flexpass/internal/transport/core"
	"flexpass/internal/transport/expresspass"
)

// Config returns the layered configuration for the given pacer settings:
// ECN-capable data (so the shared-queue marking reaches the window) and
// the window gate enabled.
func Config(p core.PacerConfig) expresspass.Config {
	cfg := expresspass.DefaultConfig(p)
	cfg.Layered = true
	cfg.DataECN = true
	return cfg
}
