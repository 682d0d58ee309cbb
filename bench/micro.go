package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"strconv"
	"time"

	"equalizer/internal/cache"
	"equalizer/internal/clock"
	"equalizer/internal/config"
	"equalizer/internal/core"
	"equalizer/internal/dram"
	"equalizer/internal/events"
	"equalizer/internal/exp"
	"equalizer/internal/exp/runcache"
	"equalizer/internal/exp/workpool"
	"equalizer/internal/gpu"
	"equalizer/internal/icnt"
	"equalizer/internal/kernels"
	"equalizer/internal/power"
	"equalizer/internal/service/tuner"
	"equalizer/internal/sm"
	"equalizer/internal/telemetry"
	"equalizer/internal/warp"
)

// bencher times a component's public API from outside: f(n) performs n
// operations, chunks repeat until the budget is spent, and the cost is the
// median nanoseconds per operation over the chunks.
type bencher struct {
	budget time.Duration
	scale  float64
}

func (b bencher) perOp(n int, f func(n int)) float64 {
	n = max(1, int(float64(n)*b.scale))
	var chunks []float64
	var spent time.Duration
	for len(chunks) < 5 || spent < b.budget {
		t0 := time.Now()
		f(n)
		d := time.Since(t0)
		spent += d
		chunks = append(chunks, float64(d.Nanoseconds())/float64(n))
	}
	return median(chunks)
}

// stubMemLatency is the fixed latency, in SM cycles, of the perfect memory
// system behind the standalone SM driver.
const stubMemLatency = 400

// micro measures the component costs no boundary isolates, each by feeding
// one component's public API a request stream. scale shrinks the iteration
// counts for the smoke path; sample is a real result to store and load; dir
// is a fresh scratch directory.
func micro(m map[string]float64, rng *rand.Rand, scale float64, sample exp.Totals, dir string) error {
	b := bencher{budget: time.Duration(float64(60*time.Millisecond) * scale), scale: scale}
	cfg := config.Default()

	compute, err := smStep(b, cfg, "cutcp")
	if err != nil {
		return err
	}
	memory, err := smStep(b, cfg, "lbm")
	if err != nil {
		return err
	}
	m["sm.step_compute_ns"] = compute
	m["sm.step_memory_ns"] = memory

	k, err := kernels.ByName("cutcp")
	if err != nil {
		return err
	}
	prof := k.Profile(0)
	stream := warp.NewStream(prof, 0)
	id := 0
	m["warp.next_ns"] = b.perOp(100000, func(n int) {
		for i := 0; i < n; i++ {
			if stream.Next().Kind == warp.EXIT {
				id++
				stream.Init(prof, id)
			}
		}
	})

	// A wake queue at SM-like occupancy: a few dozen pending warps, each
	// woken some tens to hundreds of cycles after it went to sleep.
	width := cfg.SMClockPS
	cal := events.NewCalendar[int](width, 256)
	delays := make([]int64, 1024)
	for i := range delays {
		delays[i] = width * int64(8+rng.IntN(stubMemLatency))
	}
	now, woken := int64(0), 0
	wake := func(int) { woken++ }
	for i := 0; i < cfg.MaxWarpsPerSM; i++ {
		cal.Push(delays[i], i)
	}
	perCycle := b.perOp(100000, func(n int) {
		for i := 0; i < n; i++ {
			now += width
			before := woken
			cal.PopReady(now, wake)
			for j := before; j < woken; j++ {
				cal.Push(now+delays[j%len(delays)], j)
			}
		}
	})
	m["events.calendar_ns"] = perCycle * float64(now/width) / float64(max(1, woken)) // per Push+PopReady pair

	l1 := cache.MustNew(cfg.L1)
	line := cache.Addr(cfg.L1.LineBytes)
	for i := cache.Addr(0); i < 16; i++ {
		if l1.Access(i*line) == cache.Miss {
			l1.Fill(i * line)
		}
	}
	var a cache.Addr
	m["cache.hit_ns"] = b.perOp(200000, func(n int) {
		for i := 0; i < n; i++ {
			a = (a + 1) & 15
			l1.Access(a * line)
		}
	})
	next := cache.Addr(1 << 20)
	m["cache.miss_fill_ns"] = b.perOp(100000, func(n int) {
		for i := 0; i < n; i++ {
			next += line
			if l1.Access(next) == cache.Miss {
				l1.Fill(next)
			}
		}
	})

	net := icnt.MustNew(icnt.Config{NumSMs: cfg.NumSMs, QueueDepth: cfg.ICNTQueueDepth, DrainPerCycle: 10})
	accept := func(icnt.Request) bool { return true }
	perRound := cfg.NumSMs * cfg.ICNTQueueDepth
	m["icnt.push_drain_ns"] = b.perOp(2000, func(n int) {
		for i := 0; i < n; i++ {
			for d := 0; d < cfg.ICNTQueueDepth; d++ {
				for s := 0; s < cfg.NumSMs; s++ {
					net.Push(icnt.Request{SM: s, Line: cache.Addr(s*cfg.ICNTQueueDepth+d) * line})
				}
			}
			for !net.Drained() {
				net.Drain(accept)
			}
		}
	}) / float64(perRound)

	dcfg := dram.Config{QueueDepth: cfg.DRAMQueueDepth, ServiceInterval: cfg.DRAMServiceInterval, Latency: cfg.DRAMLatency}
	busy := dram.MustNew(dcfg)
	var cyc int64
	m["dram.step_busy_ns"] = b.perOp(100000, func(n int) {
		for i := 0; i < n; i++ {
			for busy.CanAccept() {
				next += line
				busy.Enqueue(next)
			}
			busy.Step(cyc)
			cyc++
		}
	})
	idle := dram.MustNew(dcfg)
	const skip = 1000
	var first int64
	m["dram.skipidle_ns"] = b.perOp(100000, func(n int) {
		for i := 0; i < n; i++ {
			idle.SkipIdle(first, skip)
			first += skip
		}
	}) / skip

	dom := clock.NewDomain("sm", cfg.SMClockPS, cfg.Modulation)
	m["clock.tick_ns"] = b.perOp(500000, func(n int) {
		for i := 0; i < n; i++ {
			dom.Tick()
		}
	})
	meter := power.NewMeter(power.Default())
	m["power.accumulate_ns"] = b.perOp(500000, func(n int) {
		for i := 0; i < n; i++ {
			meter.AccumulateSM(config.VFNormal, power.SMTotals{ALU: 3, SFU: 1, MEM: 1, L1: 2, ActiveSMTimePS: 15000, TimePS: 1000})
			meter.AccumulateMem(config.VFNormal, power.MemTotals{L2: 2, DRAM: 1, TimePS: 1000})
		}
	})

	on := telemetry.NewBus(1<<16, telemetry.MaskAll)
	m["telemetry.emit_ns"] = b.perOp(500000, func(n int) {
		for i := 0; i < n; i++ {
			on.Emit(int64(i), telemetry.KindWarpIssue, 0, int64(i), 0)
		}
	})
	masked := telemetry.NewBus(1<<16, telemetry.MaskOf(telemetry.KindKernelBegin))
	m["telemetry.emit_masked_ns"] = b.perOp(500000, func(n int) {
		for i := 0; i < n; i++ {
			masked.Emit(int64(i), telemetry.KindWarpIssue, 0, int64(i), 0)
		}
	})

	m["gpu.new_us"] = b.perOp(20, func(n int) {
		for i := 0; i < n; i++ {
			if _, err = gpu.New(cfg, power.Default(), nil); err != nil {
				return
			}
		}
	}) / 1e3
	if err != nil {
		return err
	}
	// Collect and the Prometheus rendering of a machine that has run.
	small, err := kernels.ByName("lavaMD")
	if err != nil {
		return err
	}
	small = small.WithGridScale(smokeScale, cfg.NumSMs)
	machine, err := gpu.New(cfg, power.Default(), nil)
	if err != nil {
		return err
	}
	if _, err := machine.RunKernel(small, 0); err != nil {
		return err
	}
	var reg *telemetry.Registry
	m["gpu.collect_us"] = b.perOp(20, func(n int) {
		for i := 0; i < n; i++ {
			reg = telemetry.NewRegistry()
			machine.Collect(reg)
		}
	}) / 1e3
	m["telemetry.prom_write_us"] = b.perOp(20, func(n int) {
		for i := 0; i < n; i++ {
			if err = reg.WritePrometheus(io.Discard); err != nil {
				return
			}
		}
	}) / 1e3
	if err != nil {
		return err
	}

	// One epoch's decisions: Algorithm 1 on each SM's counters, then the
	// majority vote over the 15 SMs.
	counters := make([]core.Counters, cfg.NumSMs)
	for i := range counters {
		counters[i] = core.Counters{Active: float64(8 + rng.IntN(40)), Waiting: float64(rng.IntN(24)),
			XALU: float64(rng.IntN(16)), XMEM: float64(rng.IntN(16))}
	}
	votes := make([]core.Vote, cfg.NumSMs)
	steps := 0
	m["core.decide_ns"] = b.perOp(50000, func(n int) {
		for i := 0; i < n; i++ {
			for s, c := range counters {
				d := core.Decide(c, 8, 2)
				votes[s] = core.Vote{SM: d.BlockDelta, Mem: -d.BlockDelta}
			}
			smStep, memStep := core.Majority(votes)
			steps += smStep + memStep
		}
	})

	// The service controller against the deterministic load model, with
	// arrivals that swing between idle and saturation.
	load := tuner.NewLoadSim(4, 0.005)
	ctl := tuner.New(tuner.Config{MinWorkers: 1, MaxWorkers: 8}, load)
	arrivals := make([]int, 64)
	for i := range arrivals {
		arrivals[i] = rng.IntN(48)
	}
	var ticks int
	var tickNS time.Duration
	b.perOp(2000, func(n int) {
		for i := 0; i < n; i++ {
			load.Step(arrivals[ticks%len(arrivals)])
			t0 := time.Now()
			ctl.Tick()
			tickNS += time.Since(t0)
			ticks++
		}
	})
	m["tuner.tick_us"] = us(tickNS) / float64(ticks)

	pool := workpool.New(runtime.GOMAXPROCS(0))
	m["workpool.do_us"] = b.perOp(2000, func(n int) {
		for i := 0; i < n; i++ {
			if err = pool.Do(context.Background(), func() {}); err != nil {
				return
			}
		}
	}) / 1e3
	if err != nil {
		return err
	}

	return microRuncache(m, b, sample, dir)
}

// microRuncache times the disk cache on a fresh directory with a real
// result: distinct keys stored, loaded back, and looked up in vain.
func microRuncache(m map[string]float64, b bencher, sample exp.Totals, dir string) error {
	rc, err := runcache.Open(dir)
	if err != nil {
		return err
	}
	entry, err := json.Marshal(sample)
	if err != nil {
		return err
	}
	m["runcache.entry_bytes"] = float64(len(entry))
	stored := 0
	m["runcache.store_us"] = b.perOp(50, func(n int) {
		for i := 0; i < n; i++ {
			if err = rc.Store("k"+strconv.Itoa(stored), sample); err != nil {
				return
			}
			stored++
		}
	}) / 1e3
	if err != nil {
		return err
	}
	var got exp.Totals
	loaded := 0
	m["runcache.load_us"] = b.perOp(50, func(n int) {
		for i := 0; i < n; i++ {
			var ok bool
			if ok, err = rc.Load("k"+strconv.Itoa(loaded%stored), &got); err != nil || !ok {
				err = fmt.Errorf("runcache: stored entry %d not loaded back: %v", loaded%stored, err)
				return
			}
			loaded++
		}
	}) / 1e3
	if err != nil {
		return err
	}
	if digest(got) != digest(sample) {
		return fmt.Errorf("runcache: loaded entry differs from the one stored")
	}
	m["runcache.miss_us"] = b.perOp(50, func(n int) {
		for i := 0; i < n; i++ {
			if _, err = rc.Load("absent"+strconv.Itoa(i), &got); err != nil {
				return
			}
		}
	}) / 1e3
	return err
}

// smStep drives one standalone SM with the named kernel's profile behind a
// perfect memory system of fixed latency, keeping it at the kernel's
// resident-block limit, and returns nanoseconds per Step.
func smStep(b bencher, cfg config.GPU, kernel string) (float64, error) {
	k, err := kernels.ByName(kernel)
	if err != nil {
		return 0, err
	}
	prof := k.Profile(0)
	s := sm.New(cfg, 0)
	s.SetTargetBlocks(k.MaxResidentBlocks(cfg.MaxWarpsPerSM))
	period := clock.Time(cfg.SMClockPS)
	now, block := clock.Time(0), 0
	return b.perOp(50000, func(n int) {
		for i := 0; i < n; i++ {
			for s.WantsBlock(k.Wcta) {
				s.LaunchBlock(prof, block, k.Wcta)
				block++
			}
			now += period
			s.Step(now, period)
			if r, ok := s.TakeOutbox(); ok {
				s.DeliverLine(r.Line, now+stubMemLatency*period)
			}
		}
	}), nil
}
