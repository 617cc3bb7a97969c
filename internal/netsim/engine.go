package netsim

// engine.go is the sharded run-queue front end of the conversation engine.
//
// A ConvEngine owns N shards, each a single goroutine draining a FIFO job
// queue. Jobs are routed by a hash of the (src, dst) conversation pair, so
// all traffic between one attacker and one honeypot lands on one shard in
// submission order — per-(src,dst) FIFO is exactly the ordering the
// honeypots' keyed state (flood counters bucketed by (proto, src, day))
// depends on, which is why campaign output is byte-identical at any shard
// count. Each shard also owns an arena of recycled conversation objects;
// because a shard is single-threaded, the arena needs no lock.
//
// Dials made inside a shard job find the shard's arena through the job
// context; dials made anywhere else (the scan leg's own worker pool, tests)
// fall back to a global sync.Pool. Either way the blocking Dial API is
// unchanged — the engine is a scheduler around it, not a new dial surface.

import (
	"context"
	"sync"
	"sync/atomic"
)

// shardCtxKey carries the owning shard through a job's context into Dial.
type shardCtxKey struct{}

type shardJob struct {
	ctx context.Context
	fn  func(ctx context.Context)
}

// convShard is one single-threaded lane of the engine: a job queue plus a
// lock-free arena of recycled conversations. free is touched only by the
// shard goroutine (conversations are acquired and released inside jobs).
type convShard struct {
	queue chan shardJob
	free  []*conv
	// ctxCache memoizes the shard-tagged wrapper for the most recent parent
	// context: a campaign submits thousands of jobs under one context, and
	// re-wrapping each one was measurable allocation churn.
	ctxCache atomic.Pointer[shardCtxPair]
}

// shardCtxPair is one memoized (parent, shard-tagged wrapper) association.
type shardCtxPair struct {
	parent  context.Context
	wrapped context.Context
}

func (sh *convShard) getConv() *conv {
	if n := len(sh.free); n > 0 {
		cv := sh.free[n-1]
		sh.free = sh.free[:n-1]
		return cv
	}
	return &conv{}
}

func (sh *convShard) putConv(cv *conv) { sh.free = append(sh.free, cv) }

// ConvEngine executes conversation jobs on hash-of-(src,dst) shards.
type ConvEngine struct {
	shards []*convShard
	jobWG  sync.WaitGroup // submitted-but-unfinished jobs, for Drain
	wg     sync.WaitGroup // shard goroutines, for Close
}

// NewConvEngine starts an engine with the given number of shards (minimum 1).
func NewConvEngine(shards int) *ConvEngine {
	if shards < 1 {
		shards = 1
	}
	e := &ConvEngine{shards: make([]*convShard, shards)}
	for i := range e.shards {
		sh := &convShard{queue: make(chan shardJob, 64)}
		e.shards[i] = sh
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for job := range sh.queue {
				job.fn(job.ctx)
				e.jobWG.Done()
			}
		}()
	}
	return e
}

// Submit enqueues fn on the shard owning the (src, dst) pair. It blocks only
// when that shard's queue is full. Returns false — and does not run fn — if
// ctx is cancelled before the job is accepted.
func (e *ConvEngine) Submit(ctx context.Context, src, dst IPv4, fn func(ctx context.Context)) bool {
	h := (uint64(src)<<32 | uint64(dst)) * 0x9e3779b97f4a7c15
	sh := e.shards[(h^(h>>32))%uint64(len(e.shards))]
	e.jobWG.Add(1)
	var jctx context.Context
	if c := sh.ctxCache.Load(); c != nil && c.parent == ctx {
		jctx = c.wrapped
	} else {
		jctx = context.WithValue(ctx, shardCtxKey{}, sh)
		sh.ctxCache.Store(&shardCtxPair{parent: ctx, wrapped: jctx})
	}
	select {
	case sh.queue <- shardJob{ctx: jctx, fn: fn}:
		return true
	case <-ctx.Done():
		e.jobWG.Done()
		return false
	}
}

// Drain blocks until every job accepted so far has finished. Unlike Close it
// leaves the shards running, so it can fence day boundaries mid-campaign.
func (e *ConvEngine) Drain() { e.jobWG.Wait() }

// Close drains and stops the shard goroutines. Submit must not be called
// after (or concurrently with) Close.
func (e *ConvEngine) Close() {
	for _, sh := range e.shards {
		close(sh.queue)
	}
	e.wg.Wait()
}
