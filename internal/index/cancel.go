// Cooperative cancellation for index traversals.
//
// The query path carries deadlines as context.Context down to the core
// engine, but a context cannot cross into the //yask:hotpath traversal
// code: ctx.Done() and ctx.Err() are dynamic interface calls the
// hot-path analyzer cannot verify allocation-free, and ctx.Err() takes
// a mutex on the cancelCtx fast path. Cancel is the bridge — a plain
// value wrapping the context's done channel, captured once per request
// on the non-hot side (CancelOf) and polled in hot loops with an
// allocation-free non-blocking receive (Canceled).
//
// Cancellation is communicated out of band: a tripped traversal stops
// visiting nodes and returns whatever partial state it has (heaps are
// still drained, stacks still recycled, so pooled scratch stays
// reusable), and the caller — which owns the context — checks ctx.Err()
// after the call, discards the partial answer, and returns the error.
// The zero Cancel never trips, so every pre-existing call site keeps
// byte-identical behavior by passing NoCancel.

package index

import "context"

// CheckInterval is the number of node visits between cooperative
// cancellation checks in the shared traversal drivers. A canceled
// traversal therefore stops within at most CheckInterval node visits
// (plus the entries of the leaf in hand) of the cancellation — the
// bounded-latency guarantee the serving layer's deadlines rely on —
// while the warm path pays one channel poll per 256 visits instead of
// one per node.
const CheckInterval = 256

// Cancel is an allocation-free cancellation token for index
// traversals: a by-value wrapper around a context's done channel. The
// zero value never cancels. Tokens are immutable and safe to share
// across goroutines — every query of a batch polls the same channel,
// so one expired deadline stops them all.
type Cancel struct {
	done <-chan struct{}
}

// NoCancel is the zero token: a traversal given it never stops early.
// Hot-path callers that have no deadline pass it by name so they don't
// need a composite literal in annotated code.
var NoCancel Cancel

// CancelOf captures ctx's cancellation signal as a traversal token.
// It is deliberately not a hot-path function: the dynamic ctx.Done()
// call happens once per request here, so the traversal loops never
// touch the context interface.
func CancelOf(ctx context.Context) Cancel {
	return Cancel{done: ctx.Done()}
}

// Canceled reports whether the token has tripped. It is a non-blocking
// receive on the captured done channel: allocation-free, lock-free,
// and safe to call from any goroutine.
//
//yask:hotpath
func (c Cancel) Canceled() bool {
	if c.done == nil {
		return false
	}
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}
