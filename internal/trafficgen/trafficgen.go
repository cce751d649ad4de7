// Package trafficgen provides the contention generators the paper's
// experiments use: a UDP blaster "quite capable of overwhelming any
// TCP application that does not have a reservation" (§5.2) and a
// CPU-intensive hog process (§5.5).
package trafficgen

import (
	"fmt"
	"time"

	"mpichgq/internal/dsrt"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// Background is a background contention generator: the packet-level
// UDP blaster and the fluid blaster implement it, so figure configs
// select the simulation mode instead of constructing blasters inline.
type Background interface {
	// Run attaches the generator to src targeting dst's port and
	// schedules its traffic. It returns immediately.
	Run(src, dst *netsim.Node, port netsim.Port) error
	// Sent returns the datagrams (or datagram-equivalents) offered so
	// far.
	Sent() int64
}

// BackgroundOptions parameterizes NewBackground.
type BackgroundOptions struct {
	// Rate is the offered load. Required.
	Rate units.BitRate
	// PacketSize is the datagram payload size. Default 1000 bytes.
	PacketSize units.ByteSize
	// Jitter randomizes packet-mode inter-packet gaps by ±fraction.
	// Fluid mode has no per-packet events to jitter; it is ignored
	// there.
	Jitter float64
	// Start and Stop bound the blasting window; Stop 0 = forever.
	Start, Stop time.Duration
	// Fluid selects the fluid blaster (rate installed analytically at
	// queues) instead of the packet-level one.
	Fluid bool
}

// NewBackground returns the blaster the options select: the same
// seeded schedule runs either packet-level or as fluid.
func NewBackground(o BackgroundOptions) Background {
	if o.Fluid {
		return &FluidBlaster{Rate: o.Rate, PacketSize: o.PacketSize, Start: o.Start, Stop: o.Stop}
	}
	return &UDPBlaster{Rate: o.Rate, PacketSize: o.PacketSize, Jitter: o.Jitter, Start: o.Start, Stop: o.Stop}
}

// UDPBlaster floods a destination with best-effort UDP datagrams at a
// configured rate.
type UDPBlaster struct {
	// Rate is the offered load. Required.
	Rate units.BitRate
	// PacketSize is the datagram payload size. Default 1000 bytes.
	PacketSize units.ByteSize
	// Jitter randomizes inter-packet gaps by ±fraction (0 = perfectly
	// paced CBR). A little jitter avoids phase-locking with the
	// victim's packets.
	Jitter float64
	// Start and Stop bound the blasting window; Stop 0 = forever.
	Start, Stop time.Duration

	sent int64

	// Set by Run for the send callback.
	k    *sim.Kernel
	sock *netsim.UDPSocket
	dst  netsim.Addr
	port netsim.Port
	gap  time.Duration
}

// Run attaches the blaster to src targeting dst's port. It schedules
// the first datagram and returns immediately.
func (b *UDPBlaster) Run(src, dst *netsim.Node, port netsim.Port) error {
	if b.Rate <= 0 {
		return fmt.Errorf("trafficgen: blaster needs a positive rate")
	}
	if b.PacketSize == 0 {
		b.PacketSize = 1000
	}
	k := src.Network().Kernel()
	sock, err := src.UDPStack().Bind(0)
	if err != nil {
		return err
	}
	// Make sure something sinks the datagrams (drops at the stack are
	// fine too, but a bound sink keeps counters meaningful).
	dstStack := dst.UDPStack()
	if sink, err := dstStack.Bind(port); err == nil {
		sink.Serve(func(netsim.Datagram) {})
	}
	b.k, b.sock, b.dst, b.port = k, sock, dst.Addr(), port
	b.gap = b.Rate.TimeToSend(b.PacketSize + netsim.UDPHeader + netsim.IPHeader)
	k.AtFunc(b.Start, sim.PrioNormal, blasterSend, b, nil)
	return nil
}

// blasterSend is the blaster's prebound timer callback: unless the
// window has closed, it sends one datagram and schedules itself after
// the (jittered) gap.
func blasterSend(a0, _ any) {
	b := a0.(*UDPBlaster)
	k := b.k
	if b.Stop != 0 && k.Now() >= b.Stop {
		return
	}
	b.sock.SendTo(b.dst, b.port, b.PacketSize)
	b.sent++
	d := b.gap
	if b.Jitter > 0 {
		d = time.Duration(float64(b.gap) * k.RNG().Jitter(b.Jitter))
	}
	if d < 0 {
		d = 0
	}
	k.AfterFunc(d, blasterSend, b, nil)
}

// Sent returns the number of datagrams offered so far.
func (b *UDPBlaster) Sent() int64 { return b.sent }

// FluidBlaster is the fluid-mode counterpart of UDPBlaster: the same
// offered rate over the same window, but modeled as a netsim.FluidFlow
// whose rate is installed analytically at every queue on the path. Its
// only kernel events are the start and stop rate changes.
type FluidBlaster struct {
	// Rate is the offered load. Required.
	Rate units.BitRate
	// PacketSize is the payload size of the notional datagrams; it
	// sets the service quantum foreground packets see. Default 1000.
	PacketSize units.ByteSize
	// Start and Stop bound the blasting window; Stop 0 = forever.
	Start, Stop time.Duration

	flow *netsim.FluidFlow
}

// Run declares the fluid flow and schedules its start/stop rate
// changes. It returns immediately.
func (b *FluidBlaster) Run(src, dst *netsim.Node, port netsim.Port) error {
	if b.Rate <= 0 {
		return fmt.Errorf("trafficgen: blaster needs a positive rate")
	}
	if b.PacketSize == 0 {
		b.PacketSize = 1000
	}
	net := src.Network()
	k := net.Kernel()
	name := fmt.Sprintf("blaster-%s->%s", src.Name(), dst.Name())
	b.flow = net.NewFluidFlow(name, src, dst, port, b.Rate, b.PacketSize)
	k.AtFunc(b.Start, sim.PrioNet, fluidBlasterStart, b.flow, nil)
	if b.Stop > 0 {
		k.AtFunc(b.Stop, sim.PrioNet, fluidBlasterStop, b.flow, nil)
	}
	return nil
}

// fluidBlasterStart and fluidBlasterStop are prebound rate-change
// callbacks.
func fluidBlasterStart(a0, _ any) { a0.(*netsim.FluidFlow).Start() }
func fluidBlasterStop(a0, _ any)  { a0.(*netsim.FluidFlow).Stop() }

// Sent returns the datagram-equivalents offered so far (offered bytes
// divided by the payload size).
func (b *FluidBlaster) Sent() int64 {
	if b.flow == nil {
		return 0
	}
	return int64(b.flow.OfferedBytes() / b.PacketSize)
}

// CPUHog occupies a CPU with continuous best-effort computation
// between Start and Stop (Stop 0 = forever), emulating "a
// CPU-intensive application ... running on the same machine as the
// sending side" (§5.5).
type CPUHog struct {
	Start, Stop time.Duration

	task *dsrt.Task
}

// hogSlice is the length of each CPUHog compute burst.
const hogSlice = 10 * time.Millisecond

// Run attaches the hog to a CPU and spawns its process.
func (h *CPUHog) Run(k *sim.Kernel, cpu *dsrt.CPU) {
	h.task = cpu.NewTask("cpu-hog")
	k.SpawnAt(h.Start, fmt.Sprintf("cpu-hog-%s", cpu.Name()), func(ctx *sim.Ctx) {
		for h.Stop == 0 || ctx.Now() < h.Stop {
			h.task.Compute(ctx, hogSlice)
		}
		h.task.Close()
	})
}
