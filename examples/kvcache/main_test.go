package main

import "testing"

// TestNoteMatchesMeasurement runs the example's measurement and checks
// each relation its closing note states: RAMBDA is bound by the
// accelerator's cc-link issue stage at about seven memory operations
// per request, it serves less than half the CPU's throughput at about
// twice its average latency, and the CPU's cores are half idle.
func TestNoteMatchesMeasurement(t *testing.T) {
	r, rs := runRambda()
	c, cs := runCPU()

	issue := rs.Accel.IssueResource()
	top, util := busiest(rs, r.End)
	if top != issue || util < 0.95 {
		t.Errorf("RAMBDA's busiest resource is %s at %.3f, want %s saturated", top.Name(), util, issue.Name())
	}
	if perReq := float64(issue.Ops()) / float64(r.Requests); perReq < 6.5 || perReq > 7.5 {
		t.Errorf("RAMBDA issues %.2f memory operations per request, want about seven", perReq)
	}
	if r.Throughput >= c.Throughput/2 {
		t.Errorf("RAMBDA %.2f Mops, CPU %.2f Mops: want less than half", r.Throughput/1e6, c.Throughput/1e6)
	}
	if ratio := float64(r.Latency.Mean()) / float64(c.Latency.Mean()); ratio < 1.7 || ratio > 2.5 {
		t.Errorf("average latency RAMBDA %v vs CPU %v (%.2fx), want about twice", r.Latency.Mean(), c.Latency.Mean(), ratio)
	}
	cores := cs.CPU.Cores()
	if top, util := busiest(cs, c.End); top != cores || util < 0.4 || util > 0.6 {
		t.Errorf("CPU server's busiest resource is %s at %.3f, want its cores about half busy", top.Name(), util)
	}
}
