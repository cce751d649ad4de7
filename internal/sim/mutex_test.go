package sim

import (
	"testing"
	"time"
)

func TestMutexExcludes(t *testing.T) {
	k := New(1)
	m := NewMutex(k)
	inside := 0
	maxInside := 0
	for i := 0; i < 4; i++ {
		k.Spawn("p", func(ctx *Ctx) {
			for j := 0; j < 5; j++ {
				m.Lock(ctx)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				ctx.Sleep(time.Millisecond)
				inside--
				m.Unlock()
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("max holders = %d, want 1", maxInside)
	}
	if m.held {
		t.Fatal("mutex left locked")
	}
}

func TestMutexFIFO(t *testing.T) {
	k := New(1)
	m := NewMutex(k)
	var order []int
	// Holder takes the lock; three waiters queue in spawn order.
	k.Spawn("holder", func(ctx *Ctx) {
		m.Lock(ctx)
		ctx.Sleep(10 * time.Millisecond)
		m.Unlock()
	})
	for i := 0; i < 3; i++ {
		i := i
		k.Spawn("w", func(ctx *Ctx) {
			ctx.Sleep(time.Duration(i+1) * time.Millisecond)
			m.Lock(ctx)
			order = append(order, i)
			m.Unlock()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestMutexUnlockUnlockedPanics(t *testing.T) {
	k := New(1)
	m := NewMutex(k)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Unlock()
}

func TestMutexUncontendedFast(t *testing.T) {
	k := New(1)
	m := NewMutex(k)
	var at time.Duration
	k.Spawn("p", func(ctx *Ctx) {
		m.Lock(ctx)
		m.Unlock()
		at = ctx.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 0 {
		t.Fatalf("uncontended lock took virtual time: %v", at)
	}
}
