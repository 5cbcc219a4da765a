// Package flexpass is a from-scratch Go reproduction of "FlexPass: A Case
// for Flexible Credit-based Transport for Datacenter Networks" (Lim et
// al., EuroSys 2023).
//
// It contains a deterministic packet-level discrete-event simulator of
// datacenter fabrics (switch queues with strict priority, DWRR, ECN
// marking, color-aware selective dropping, shared dynamic buffers, ECMP
// Clos topologies) and full implementations of the transports the paper
// studies: DCTCP, ExpressPass, a simplified HOMA, the layering baseline,
// and FlexPass itself — the credit-based transport split into a proactive
// (credit-scheduled) and a reactive (opportunistic, DCTCP-controlled)
// sub-flow that co-exist with legacy traffic through weighted fair
// queueing and selective dropping.
//
// This root package is the public façade:
//
//   - Testbed: a single-switch or dumbbell fabric on which flows start by
//     transport name (see examples/), run as a one-plane harness session.
//   - Scenario / Run: the paper's deployment studies on the 3-tier Clos
//     fabric or a testbed layout; every figure is a sweep of them (see
//     EXPERIMENTS.md for the recorded results).
//
// Everything is standard library only and bit-for-bit reproducible for a
// given configuration and seed.
package flexpass
