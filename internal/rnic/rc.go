package rnic

import (
	"rambda/internal/interconnect"
	"rambda/internal/sim"
)

// This file is the reliable-connection transport state of a QP: packet
// sequence numbers, ACK/timeout-driven retransmission with exponential
// backoff, and the QP error state that flushes outstanding WQEs as
// error CQEs.
// With no fault plan attached to the underlying links, every path here
// collapses to exactly one Transmit per wire leg — the zero-fault
// timing is byte-identical to the pre-fault model and allocation-free.

// CQEStatus is the completion status carried in a CQE (a condensed
// ibv_wc_status). The zero value is success, so pre-fault code that
// never set a status keeps meaning "ok".
type CQEStatus int

const (
	// CQEOK is a successful completion.
	CQEOK CQEStatus = iota
	// CQERetryExceeded reports the transport retry counter ran out
	// (IBV_WC_RETRY_EXC_ERR): the fabric dropped every retransmission.
	CQERetryExceeded
	// CQEFlushErr reports a WQE flushed because the QP was already in
	// the error state (IBV_WC_WR_FLUSH_ERR).
	CQEFlushErr
)

// String names the status.
func (s CQEStatus) String() string {
	switch s {
	case CQEOK:
		return "OK"
	case CQERetryExceeded:
		return "RETRY_EXC"
	case CQEFlushErr:
		return "WR_FLUSH"
	default:
		return "status(?)"
	}
}

// QPState is the queue pair state machine, reduced to the two states
// the model distinguishes.
type QPState int

const (
	// QPReady is RTS: WQEs execute normally.
	QPReady QPState = iota
	// QPError flushes every posted WQE as an error CQE until Recover.
	QPError
)

// Transport tuning: the retransmission timeout comfortably covers the
// modeled ~4us RTT and doubles per retry up to rto << rcBackoffCap; the
// retry budget per wire leg mirrors IB's 3-bit retry_cnt maximum of 7,
// after which the QP enters the error state.
const (
	rto          = 20 * sim.Microsecond
	retryLimit   = 7
	rcBackoffCap = 6
)

// State reports the QP state.
func (q *QP) State() QPState { return q.state }

// Recover returns an errored QP to the ready state (the modify-QP
// RESET→INIT→RTR→RTS dance, after the application drained the flushed
// CQEs).
func (q *QP) Recover() { q.state = QPReady }

// PSN returns the next packet sequence number the sender will use.
func (q *QP) PSN() uint32 { return q.sendPSN }

// EPSN returns the next PSN the receive side expects.
func (q *QP) EPSN() uint32 { return q.recvPSN }

// packetsOn counts the MTU-sized packets of a transfer on a link.
func packetsOn(link *interconnect.NetLink, bytes int) int {
	if bytes <= 0 {
		return 1
	}
	return (bytes + link.MTU - 1) / link.MTU
}

// sendReliable pushes one wire leg through the link with RC
// retransmission semantics: the sender's transport timer fires when no
// ACK arrives (a dropped burst) and the leg is retransmitted with exponential backoff,
// reusing the original PSNs (go-back-N). Returns the delivery time and
// false when the retry budget is exhausted. Retransmissions do not
// advance the PSN — only first transmissions claim sequence numbers.
func (q *QP) sendReliable(link *interconnect.NetLink, now sim.Time, bytes int) (sim.Time, bool) {
	out := link.Transmit(now, bytes)
	pkts := uint32(packetsOn(link, bytes))
	q.sendPSN += pkts
	if !out.Dropped {
		q.deliverPSN(pkts)
		return out.Arrive, true
	}
	for attempt := 0; ; attempt++ {
		if attempt >= retryLimit {
			q.stats.Timeouts++
			return out.Arrive, false
		}
		// The timer is armed at transmission and backs off per retry.
		q.stats.Retransmits++
		shift := attempt
		if shift > rcBackoffCap {
			shift = rcBackoffCap
		}
		out = link.Transmit(out.Arrive+(rto<<uint(shift)), bytes)
		if !out.Dropped {
			q.deliverPSN(pkts)
			return out.Arrive, true
		}
	}
}

// deliverPSN advances the far end's expected PSN once a leg lands.
func (q *QP) deliverPSN(pkts uint32) {
	if q.remote != nil {
		q.remote.recvPSN += pkts
	}
}

// enterError moves the QP to the error state; subsequent WQEs flush.
func (q *QP) enterError() { q.state = QPError }

// failWQE completes a WQE with a transport error: the QP enters the
// error state and the failure surfaces as an error CQE regardless of
// the Signaled flag (errors always complete, standard verbs
// semantics), so no submission is ever silently lost.
func (q *QP) failWQE(now sim.Time, w WQE, status CQEStatus) OpResult {
	q.enterError()
	q.cq.push(CQE{WRID: w.WRID, At: now, Len: w.Len, Status: status})
	return OpResult{WRID: w.WRID, CQEAt: now, Status: status}
}

// flushWQE completes a WQE that never executed because the QP was
// already in the error state.
func (q *QP) flushWQE(now sim.Time, w WQE) OpResult {
	q.cq.push(CQE{WRID: w.WRID, At: now, Len: w.Len, Status: CQEFlushErr})
	return OpResult{WRID: w.WRID, CQEAt: now, Status: CQEFlushErr}
}
