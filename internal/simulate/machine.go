// Package simulate is the performance substrate standing in for the paper's
// 44-node PlaFRIM cluster: a discrete-event simulator that executes the
// factorization task graphs under a distribution scheme on a calibrated
// machine model, with full overlap of communication and computation. It
// produces the makespans and GFlop/s figures that the paper measures on real
// hardware; absolute numbers are model outputs, but the relative behaviour of
// the distribution schemes — who wins, by what factor, and where the
// crossovers fall — is driven by the compute/communication ratio the model
// captures.
package simulate

import (
	"fmt"
	"math"
)

// Machine describes the simulated platform, LogGP-style: every node has
// Workers cores executing one kernel at a time, a full-duplex NIC pair
// serializing outgoing and incoming messages at LinkBandwidth, and a fixed
// per-message Latency. This mirrors the paper's setup where StarPU dedicates
// one core to scheduling and one to MPI, leaving 34 of 36 cores as workers.
type Machine struct {
	// Workers is the number of kernel-executing cores per node.
	Workers int
	// FlopsPerWorker is the sustained kernel throughput per core, in flop/s.
	FlopsPerWorker float64
	// LinkBandwidth is the NIC bandwidth per direction, in bytes/s.
	LinkBandwidth float64
	// Latency is the per-message latency in seconds.
	Latency float64
}

// PaperMachine models the paper's testbed: 36-core Intel Xeon Skylake Gold
// 6240 nodes (34 worker cores after StarPU reserves one core for scheduling
// and one for MPI; ~40 GFlop/s sustained DGEMM per core) on a 100 Gb/s
// OmniPath network (12.5 GB/s, ~2 µs latency).
func PaperMachine() Machine {
	return Machine{
		Workers:        34,
		FlopsPerWorker: 40e9,
		LinkBandwidth:  12.5e9,
		Latency:        2e-6,
	}
}

// Validate reports configuration errors: a rate that is not positive, a
// latency that is negative, and any NaN or infinite field.
func (m Machine) Validate() error {
	if m.Workers <= 0 {
		return fmt.Errorf("simulate: Workers = %d", m.Workers)
	}
	if !positive(m.FlopsPerWorker) {
		return fmt.Errorf("simulate: FlopsPerWorker = %g", m.FlopsPerWorker)
	}
	if !positive(m.LinkBandwidth) {
		return fmt.Errorf("simulate: LinkBandwidth = %g", m.LinkBandwidth)
	}
	if m.Latency != 0 && !positive(m.Latency) {
		return fmt.Errorf("simulate: Latency = %g", m.Latency)
	}
	return nil
}

// positive reports whether v is positive and finite; NaN is not.
func positive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// Result summarizes one simulated execution.
type Result struct {
	// Makespan is the simulated wall-clock time in seconds.
	Makespan float64
	// TotalFlops is the factorization's arithmetic work.
	TotalFlops float64
	// Messages and Bytes count the logical owner→consumer tile transfers —
	// one per (tile, remote consumer node), the paper's Eq (1)/(2) quantity,
	// independent of the broadcast mode.
	Messages int64
	Bytes    int64
	// Hops counts physical link transmissions. Flat mode: Hops == Messages.
	// Tree mode: still Hops == Messages in total, but ownership shifts — the
	// root transmits only ⌈log₂(k+1)⌉ of each broadcast's k hops and
	// recipients relay the rest (counted in Forwards ⊆ Hops).
	Hops int64
	// Forwards is the subset of Hops relayed by a non-owner recipient.
	Forwards int64
	// BusyTime[n] is the total kernel-execution time on node n, across all
	// its workers.
	BusyTime []float64
	// TasksPerNode counts kernels per node.
	TasksPerNode []int
	// SentBytes and RecvBytes give per-node traffic, exposing NIC hot spots.
	SentBytes []int64
	RecvBytes []int64
	// ReduceBytes is the subset of Bytes that ships reduction partials —
	// layer accumulators of a replicated (2.5D-style) run flowing up the
	// binomial combine tree. Zero for ordinary graphs.
	ReduceBytes int64
}

// GFlops returns the aggregate simulated performance in GFlop/s.
func (r *Result) GFlops() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return r.TotalFlops / r.Makespan / 1e9
}
