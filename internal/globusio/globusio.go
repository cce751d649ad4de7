// Package globusio is the socket wrapper layer of the MPICH-GQ stack:
// "the globus-io library provides a convenient wrapper for the
// low-level socket calls used to implement wide area transport;
// traffic shaping can also be performed here."
//
// It adds three things to a raw tcpsim connection:
//
//   - Socket-buffer tuning (the §5.5 lesson: "applications that use
//     TCP and want high performance need careful tuning (such as
//     socket buffer sizes)").
//   - CPU accounting: each write and read charges per-byte copy cost
//     to the process's DSRT task, so CPU contention throttles
//     achievable bandwidth (Figures 8 and 9).
//   - Optional end-system traffic shaping: a token-bucket pacer that
//     smooths application bursts before they reach the edge router's
//     policer — the alternative approach §5.4 proposes for dealing
//     with burstiness.
package globusio

import (
	"time"

	"mpichgq/internal/dsrt"
	"mpichgq/internal/sim"
	"mpichgq/internal/tcpsim"
	"mpichgq/internal/units"
)

// ShaperConfig configures end-system pacing: writes are released into
// the socket no faster than Rate, with bursts up to Depth.
type ShaperConfig struct {
	Rate  units.BitRate
	Depth units.ByteSize
}

// Config configures a wrapped connection.
type Config struct {
	// Task, if non-nil, is charged CPU time for socket copies.
	Task *dsrt.Task
	// CopyCostPerKB is CPU time per KB moved through the socket.
	// Zero means free I/O. (A few hundred ns/KB models a late-90s
	// hosts' copy+checksum path; see internal/experiments for the
	// calibrated values.)
	CopyCostPerKB time.Duration
	// Shaper enables end-system pacing when non-nil.
	Shaper *ShaperConfig
	// WriteChunk is the granularity of socket writes (and of CPU
	// charging). Default 64 KB.
	WriteChunk units.ByteSize
}

// IO is a QoS-aware socket: a tcpsim.Conn plus CPU accounting and
// optional pacing. Whole messages are written atomically: concurrent
// writers (e.g. nonblocking MPI sends) are serialized per connection.
type IO struct {
	conn    *tcpsim.Conn
	k       *sim.Kernel
	cfg     Config
	writeMu *sim.Mutex

	// Shaper state (token bucket in bytes).
	tokens     float64
	lastRefill time.Duration

	bytesWritten int64
	bytesRead    int64
	shapeDelay   time.Duration // cumulative time spent pacing
}

// Wrap adorns an established connection.
func Wrap(k *sim.Kernel, conn *tcpsim.Conn, cfg Config) *IO {
	if cfg.WriteChunk <= 0 {
		cfg.WriteChunk = 64 * units.KB
	}
	io := &IO{conn: conn, k: k, cfg: cfg, writeMu: sim.NewMutex(k), lastRefill: k.Now()}
	if cfg.Shaper != nil {
		io.tokens = float64(cfg.Shaper.Depth)
	}
	return io
}

// Conn returns the underlying transport connection.
func (io *IO) Conn() *tcpsim.Conn { return io.conn }

// SetSockBufs tunes both socket buffers.
func (io *IO) SetSockBufs(snd, rcv units.ByteSize) {
	io.conn.SetSndBuf(snd)
	io.conn.SetRcvBuf(rcv)
}

// copyCost is the CPU time charged for moving n bytes through the
// socket, zero when nothing is charged.
func (io *IO) copyCost(n units.ByteSize) time.Duration {
	if io.cfg.Task == nil || io.cfg.CopyCostPerKB <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(io.cfg.CopyCostPerKB) * float64(n) / 1000)
}

// chargeCPU blocks the caller while the copy cost for n bytes is
// scheduled on the task.
func (io *IO) chargeCPU(ctx *sim.Ctx, n units.ByteSize) {
	if cost := io.copyCost(n); cost > 0 {
		io.cfg.Task.Compute(ctx, cost)
	}
}

// pace blocks until the shaper admits n bytes.
func (io *IO) pace(ctx *sim.Ctx, n units.ByteSize) {
	sh := io.cfg.Shaper
	if sh == nil || sh.Rate <= 0 {
		return
	}
	now := io.k.Now()
	io.tokens += float64(sh.Rate) * (now - io.lastRefill).Seconds() / 8
	if io.tokens > float64(sh.Depth) {
		io.tokens = float64(sh.Depth)
	}
	io.lastRefill = now
	if deficit := float64(n) - io.tokens; deficit > 0 {
		wait := time.Duration(deficit * 8 / float64(sh.Rate) * float64(time.Second))
		io.shapeDelay += wait
		ctx.Sleep(wait)
		io.tokens += float64(sh.Rate) * (io.k.Now() - io.lastRefill).Seconds() / 8
		io.lastRefill = io.k.Now()
	}
	io.tokens -= float64(n)
}

// Write sends n bytes, charging CPU and pacing per chunk.
func (io *IO) Write(ctx *sim.Ctx, n units.ByteSize) error {
	return io.write(ctx, n, nil, false)
}

// WriteMsg sends n bytes with obj attached at the end (see
// tcpsim.Conn.WriteMsg).
func (io *IO) WriteMsg(ctx *sim.Ctx, n units.ByteSize, obj any) error {
	return io.write(ctx, n, obj, true)
}

func (io *IO) write(ctx *sim.Ctx, n units.ByteSize, obj any, mark bool) error {
	io.writeMu.Lock(ctx)
	defer io.writeMu.Unlock()
	remaining := n
	for remaining > 0 {
		chunk := io.cfg.WriteChunk
		if chunk > remaining {
			chunk = remaining
		}
		io.chargeCPU(ctx, chunk)
		io.pace(ctx, chunk)
		last := remaining == chunk
		var err error
		if mark && last {
			err = io.conn.WriteMsg(ctx, chunk, obj)
		} else {
			err = io.conn.Write(ctx, chunk)
		}
		if err != nil {
			return err
		}
		io.bytesWritten += int64(chunk)
		remaining -= chunk
	}
	return nil
}

// Read receives up to max bytes, charging CPU for the copy.
func (io *IO) Read(ctx *sim.Ctx, max units.ByteSize) (units.ByteSize, error) {
	n, err := io.conn.Read(ctx, max)
	io.chargeCPU(ctx, n)
	io.bytesRead += int64(n)
	return n, err
}

// ReadFull receives exactly n bytes.
func (io *IO) ReadFull(ctx *sim.Ctx, n units.ByteSize) error {
	for n > 0 {
		got, err := io.Read(ctx, n)
		if err != nil {
			return err
		}
		n -= got
	}
	return nil
}

// ReadMsg receives one marked message.
func (io *IO) ReadMsg(ctx *sim.Ctx) (units.ByteSize, any, error) {
	n, obj, err := io.conn.ReadMsg(ctx)
	io.chargeCPU(ctx, n)
	io.bytesRead += int64(n)
	return n, obj, err
}

// Serve hands every message read from the connection to fn, in stream
// order, until the stream ends; no other reader may use the
// connection. fn gets what ReadMsg would return: the message length
// and its object, or, once, the error that ends the stream (io.EOF
// for a clean shutdown) with the bytes read of the unfinished message.
//
// Serve stands in for a process that loops on ReadMsg, as a
// sim.Waiter: it starts at the current instant, as a spawned process
// would; it waits for data and for the CPU charge of each read where
// the process would block; and fn runs in the event in which ReadMsg
// would have returned. So replacing such a process with Serve changes
// no event's time, priority or order, nor the kernel's event count.
// fn runs in kernel context and must not block.
func (io *IO) Serve(fn func(n units.ByteSize, obj any, err error)) {
	s := &server{io: io, fn: fn}
	s.w = io.k.NewWaiter(s.step)
	s.w.Wake()
}

// server is the state of one Serve loop.
type server struct {
	io *IO
	fn func(units.ByteSize, any, error)
	w  *sim.Waiter
	// n counts the bytes read of the current message; PollMsg adds to
	// it across wakes.
	n units.ByteSize
	// charging is set while the read's copy cost is being charged, and
	// obj and err hold what to hand fn when it ends.
	charging bool
	obj      any
	err      error
}

// step is the waiter's callback: it reads messages until the stream
// has no whole one, and hands each to fn once its copy is charged.
func (s *server) step() {
	if s.charging {
		s.charging = false
		if !s.hand() {
			return
		}
	}
	c := s.io.conn
	for {
		obj, ok, err := c.PollMsg(&s.n)
		if !ok && err == nil {
			c.AwaitReadable(s.w)
			return
		}
		s.obj, s.err = obj, err
		s.io.bytesRead += int64(s.n)
		if cost := s.io.copyCost(s.n); cost > 0 && s.io.cfg.Task.ComputeThen(cost, s.w) {
			s.charging = true
			return
		}
		if !s.hand() {
			return
		}
	}
}

// hand passes the message read to fn and reports whether the stream
// goes on.
func (s *server) hand() bool {
	n, obj, err := s.n, s.obj, s.err
	s.n, s.obj, s.err = 0, nil, nil
	s.fn(n, obj, err)
	return err == nil
}

// Drain blocks until all written data is acknowledged.
func (io *IO) Drain(ctx *sim.Ctx) error { return io.conn.Drain(ctx) }

// Close initiates a graceful shutdown.
func (io *IO) Close() { io.conn.Close() }

// Stats returns cumulative wrapper counters.
func (io *IO) Stats() Stats {
	return Stats{
		BytesWritten: units.ByteSize(io.bytesWritten),
		BytesRead:    units.ByteSize(io.bytesRead),
		ShapeDelay:   io.shapeDelay,
	}
}

// Stats holds wrapper-level counters.
type Stats struct {
	BytesWritten units.ByteSize
	BytesRead    units.ByteSize
	ShapeDelay   time.Duration
}
