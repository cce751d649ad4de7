package tcpsim

import (
	"testing"
	"time"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// appLimitedCwnd measures the sender's cwnd after a paced, app-limited
// stream with CWV either on or off.
func appLimitedCwnd(t *testing.T, disableCWV bool) units.ByteSize {
	t.Helper()
	opts := DefaultOptions()
	opts.DisableCWV = disableCWV
	opts.DisableSSR = true // isolate CWV
	opts.SndBuf = 512 * units.KB
	opts.RcvBuf = 512 * units.KB
	k, sa, sb := testNet(100*units.Mbps, 2*time.Millisecond, opts)
	var conn *Conn
	k.Spawn("server", func(ctx *sim.Ctx) {
		l, _ := sb.Listen(80)
		c, err := l.Accept(ctx)
		if err != nil {
			return
		}
		for {
			if _, err := c.Read(ctx, units.MB); err != nil {
				return
			}
		}
	})
	k.Spawn("client", func(ctx *sim.Ctx) {
		c, err := sa.Dial(ctx, sb.node.Addr(), 80)
		if err != nil {
			t.Error(err)
			return
		}
		conn = c
		// 10 KB every 10 ms = 8 Mb/s: far below the 100 Mb/s link.
		for ctx.Now() < 5*time.Second {
			c.Write(ctx, 10*units.KB)
			ctx.Sleep(10 * time.Millisecond)
		}
	})
	if err := k.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return units.ByteSize(conn.cwnd)
}

func TestCWVLimitsAppLimitedGrowth(t *testing.T) {
	withCWV := appLimitedCwnd(t, false)
	withoutCWV := appLimitedCwnd(t, true)
	// With CWV the cwnd stays near actual usage (~10-20 KB); without
	// it the window balloons on every ACK.
	if withCWV > 40*units.KB {
		t.Fatalf("cwnd with CWV = %v, want bounded near usage", withCWV)
	}
	if withoutCWV < 2*withCWV {
		t.Fatalf("cwnd without CWV = %v vs %v with, want much larger", withoutCWV, withCWV)
	}
}

func TestSlowStartRestartAfterIdle(t *testing.T) {
	opts := DefaultOptions()
	opts.SndBuf = 512 * units.KB
	opts.RcvBuf = 512 * units.KB
	k, sa, sb := testNet(100*units.Mbps, 2*time.Millisecond, opts)
	var conn *Conn
	var cwndBeforeIdle, cwndAfterIdle units.ByteSize
	k.Spawn("server", func(ctx *sim.Ctx) {
		l, _ := sb.Listen(80)
		c, err := l.Accept(ctx)
		if err != nil {
			return
		}
		for {
			if _, err := c.Read(ctx, units.MB); err != nil {
				return
			}
		}
	})
	k.Spawn("client", func(ctx *sim.Ctx) {
		c, err := sa.Dial(ctx, sb.node.Addr(), 80)
		if err != nil {
			t.Error(err)
			return
		}
		conn = c
		// Bulk phase grows cwnd.
		c.Write(ctx, 2*units.MB)
		c.Drain(ctx)
		cwndBeforeIdle = units.ByteSize(c.cwnd)
		// Idle for 2 s (>> RTO), then send again.
		ctx.Sleep(2 * time.Second)
		c.Write(ctx, 10*units.KB)
		ctx.Sleep(0)
		cwndAfterIdle = units.ByteSize(c.cwnd)
	})
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	_ = conn
	if cwndBeforeIdle < 50*units.KB {
		t.Fatalf("bulk cwnd = %v, expected growth", cwndBeforeIdle)
	}
	iw := 2 * 1460 * units.Byte
	if cwndAfterIdle > iw+1460 {
		t.Fatalf("cwnd after idle = %v, want collapsed to ~initial window %v", cwndAfterIdle, iw)
	}
}

func TestSSRDisabled(t *testing.T) {
	opts := DefaultOptions()
	opts.DisableSSR = true
	opts.SndBuf = 512 * units.KB
	opts.RcvBuf = 512 * units.KB
	k, sa, sb := testNet(100*units.Mbps, 2*time.Millisecond, opts)
	var cwndAfterIdle units.ByteSize
	k.Spawn("server", func(ctx *sim.Ctx) {
		l, _ := sb.Listen(80)
		c, err := l.Accept(ctx)
		if err != nil {
			return
		}
		for {
			if _, err := c.Read(ctx, units.MB); err != nil {
				return
			}
		}
	})
	k.Spawn("client", func(ctx *sim.Ctx) {
		c, err := sa.Dial(ctx, sb.node.Addr(), 80)
		if err != nil {
			t.Error(err)
			return
		}
		c.Write(ctx, 2*units.MB)
		c.Drain(ctx)
		ctx.Sleep(2 * time.Second)
		c.Write(ctx, 10*units.KB)
		ctx.Sleep(0)
		cwndAfterIdle = units.ByteSize(c.cwnd)
	})
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if cwndAfterIdle < 50*units.KB {
		t.Fatalf("cwnd after idle with SSR disabled = %v, want retained", cwndAfterIdle)
	}
}

func TestDelayedAckReducesAckTraffic(t *testing.T) {
	count := func(delayed bool) uint64 {
		opts := DefaultOptions()
		opts.DelayedAck = delayed
		k, sa, sb := testNet(10*units.Mbps, 2*time.Millisecond, opts)
		var srv *Conn
		k.Spawn("server", func(ctx *sim.Ctx) {
			l, _ := sb.Listen(80)
			c, err := l.Accept(ctx)
			if err != nil {
				return
			}
			srv = c
			for {
				if _, err := c.Read(ctx, units.MB); err != nil {
					return
				}
			}
		})
		k.Spawn("client", func(ctx *sim.Ctx) {
			c, err := sa.Dial(ctx, sb.node.Addr(), 80)
			if err != nil {
				t.Error(err)
				return
			}
			c.Write(ctx, 500*units.KB)
			c.Drain(ctx)
			c.Close()
		})
		if err := k.RunUntil(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		return srv.Stats().SegmentsSent // server only sends ACKs
	}
	imm := count(false)
	del := count(true)
	if del*3 > imm*2 {
		t.Fatalf("delayed ACKs sent %d segments vs %d immediate, want ~half", del, imm)
	}
}

func TestTCPSurvivesLinkFlap(t *testing.T) {
	opts := DefaultOptions()
	k, sa, sb := testNet(10*units.Mbps, 2*time.Millisecond, opts)
	link := sa.node.Network().Links()[0]
	var received units.ByteSize
	k.Spawn("server", func(ctx *sim.Ctx) {
		l, _ := sb.Listen(80)
		c, err := l.Accept(ctx)
		if err != nil {
			return
		}
		for {
			n, err := c.Read(ctx, units.MB)
			received += n
			if err != nil {
				return
			}
		}
	})
	k.Spawn("client", func(ctx *sim.Ctx) {
		c, err := sa.Dial(ctx, sb.node.Addr(), 80)
		if err != nil {
			t.Error(err)
			return
		}
		c.Write(ctx, 500*units.KB)
		c.Drain(ctx)
		c.Close()
	})
	// 2-second outage mid-transfer.
	k.After(50*time.Millisecond, func() { link.SetUp(false) })
	k.After(2050*time.Millisecond, func() { link.SetUp(true) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if received != 500*units.KB {
		t.Fatalf("received %v, want full 500KB despite the outage", received)
	}
}
