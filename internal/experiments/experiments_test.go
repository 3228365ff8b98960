package experiments

import (
	"context"
	"errors"
	"testing"

	"decvec/internal/sim"
	"decvec/internal/workload"
)

// The shape tests run at a reduced trace scale to keep the suite fast; the
// paper's qualitative findings must hold at any scale.
const testScale = 0.5

func suite(t *testing.T) *Suite {
	t.Helper()
	return NewSuite(testScale)
}

func TestSuiteCachesRuns(t *testing.T) {
	s := suite(t)
	p := workload.Simulated()[0]
	cfg := sim.DefaultConfig(10)
	a, err := s.run(p, REF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.run(p, REF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical runs not cached")
	}
	if _, err := s.run(p, Arch(99), cfg); err == nil {
		t.Error("expected unknown-architecture error")
	}
}

func TestTable1HasThirteenRows(t *testing.T) {
	r, err := Table1(context.Background(), suite(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 13 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	sim6 := 0
	for _, row := range r.Rows {
		if row.Simulated {
			sim6++
		}
		if row.Measured.ScalarInsts == 0 {
			t.Errorf("%s: empty measurement", row.Name)
		}
	}
	if sim6 != 6 {
		t.Errorf("simulated rows = %d", sim6)
	}
}

func TestFigure1Shapes(t *testing.T) {
	r, err := Figure1(context.Background(), suite(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Programs) != 6 {
		t.Fatalf("programs = %d", len(r.Programs))
	}
	for _, p := range r.Programs {
		first, last := p.Rows[0], p.Rows[len(p.Rows)-1]
		// Execution time grows with latency on the reference machine.
		if last.States.Total() <= first.States.Total() {
			t.Errorf("%s: REF time did not grow with latency (%d -> %d)",
				p.Name, first.States.Total(), last.States.Total())
		}
		// The all-idle state grows with latency (§3: the rise in < , , >
		// is the latency's doing).
		if last.States.Idle() <= first.States.Idle() {
			t.Errorf("%s: idle cycles did not grow (%d -> %d)",
				p.Name, first.States.Idle(), last.States.Idle())
		}
		// The memory port is idle for a substantial fraction somewhere —
		// the paper's motivation for decoupling.
		if last.LDIdleFrac < 0.05 {
			t.Errorf("%s: LD idle fraction %.3f suspiciously low", p.Name, last.LDIdleFrac)
		}
	}
}

func TestSweepShapes(t *testing.T) {
	s := suite(t)
	r, err := Sweep(context.Background(), s, []int64{1, 30, 100})
	if err != nil {
		t.Fatal(err)
	}
	var maxSpeedup float64
	for _, p := range r.Programs {
		// The DVA is never slower than 0.95x REF anywhere, and both stay
		// at or above the lower bound (bypass is off here).
		for _, pt := range p.Points {
			if pt.Dva.Cycles > pt.Ref.Cycles*21/20 {
				t.Errorf("%s L=%d: DVA (%d) much slower than REF (%d)",
					p.Name, pt.Latency, pt.Dva.Cycles, pt.Ref.Cycles)
			}
			if pt.Ref.Cycles < p.Ideal || pt.Dva.Cycles < p.Ideal {
				t.Errorf("%s L=%d: a run beat the lower bound (%d): ref=%d dva=%d",
					p.Name, pt.Latency, p.Ideal, pt.Ref.Cycles, pt.Dva.Cycles)
			}
		}
		sp := p.Speedup()
		// Speedup grows (or at least does not shrink much) with latency:
		// decoupling tolerates latency better.
		if sp[len(sp)-1] < sp[0]-0.05 {
			t.Errorf("%s: speedup shrinks with latency: %v", p.Name, sp)
		}
		if sp[len(sp)-1] > maxSpeedup {
			maxSpeedup = sp[len(sp)-1]
		}
		// REF's sensitivity: its time at L=100 exceeds its time at L=1.
		if p.Points[2].Ref.Cycles <= p.Points[0].Ref.Cycles {
			t.Errorf("%s: REF insensitive to latency", p.Name)
		}
		// DVA's slope is flatter than REF's.
		refRise := float64(p.Points[2].Ref.Cycles) / float64(p.Points[0].Ref.Cycles)
		dvaRise := float64(p.Points[2].Dva.Cycles) / float64(p.Points[0].Dva.Cycles)
		if dvaRise >= refRise {
			t.Errorf("%s: DVA slope (%.2f) not flatter than REF (%.2f)", p.Name, dvaRise, refRise)
		}
		// Stall-cycle ratio (Figure 4) is >= 1: decoupling reduces < , , >.
		for i, ratio := range p.StallRatio() {
			if ratio < 1 {
				t.Errorf("%s: stall ratio %.2f < 1 at L=%d", p.Name, ratio, r.Latencies[i])
			}
		}
	}
	// Somebody gets a substantial speedup at L=100 (paper: up to 2.05).
	if maxSpeedup < 1.4 {
		t.Errorf("max speedup %.2f at L=100, expected > 1.4", maxSpeedup)
	}
}

func TestSweepDYFESMFlat(t *testing.T) {
	// DYFESM is the paper's no-speedup case: its three dominant loops are
	// chime-bound or lockstepped.
	r, err := Sweep(context.Background(), suite(t), []int64{1, 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Programs {
		if p.Name != "DYFESM" {
			continue
		}
		for i, sp := range p.Speedup() {
			if sp > 1.25 {
				t.Errorf("DYFESM speedup %.2f at %d: should stay near 1", sp, r.Latencies[i])
			}
		}
	}
}

func TestFigure6Shapes(t *testing.T) {
	r, err := Figure6(context.Background(), suite(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Programs {
		for _, row := range p.Rows {
			// §6: no program ever holds more than 8 busy slots — the
			// 16-slot VPIQ bounds the loads in flight.
			if m := row.Hist.Max(); m > 9 {
				t.Errorf("%s L=%d: AVDQ occupancy %d exceeds the VPIQ bound", p.Name, row.Latency, m)
			}
		}
		// Occupancy grows with latency (more outstanding requests) unless
		// the program already saturates the usable depth at L=1, as
		// SPEC77's load bursts do.
		first := p.Rows[0].Hist.Mean()
		last := p.Rows[len(p.Rows)-1].Hist.Mean()
		if first < 3 && last < first-0.2 {
			t.Errorf("%s: occupancy fell with latency: %.2f -> %.2f", p.Name, first, last)
		}
	}
	// SPEC77 uses the queue hardest (its load bursts).
	var spec77, others float64
	var nOthers int
	for _, p := range r.Programs {
		m := p.Rows[len(p.Rows)-1].Hist.Mean()
		if p.Name == "SPEC77" {
			spec77 = m
		} else {
			others += m
			nOthers++
		}
	}
	if spec77 <= others/float64(nOthers) {
		t.Errorf("SPEC77 mean occupancy %.2f not above the others' average %.2f",
			spec77, others/float64(nOthers))
	}
}

func TestFigure7Shapes(t *testing.T) {
	s := suite(t)
	r, err := Figure7(context.Background(), s, []int64{1, 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Programs {
		series := map[string][]Figure7Point{}
		for _, ser := range p.Series {
			series[ser.Name] = ser.Points
		}
		dva := series["DVA 256/16"]
		byp := series["BYP 256/16"]
		// The big-queue bypass never loses to the DVA (same queues plus a
		// shortcut).
		for i := range dva {
			if byp[i].Cycles > dva[i].Cycles*101/100 {
				t.Errorf("%s L=%d: BYP 256/16 (%d) slower than DVA (%d)",
					p.Name, dva[i].Latency, byp[i].Cycles, dva[i].Cycles)
			}
		}
		// §7: SPEC77 suffers with a 4-slot load queue relative to its own
		// 256-slot configuration.
		if p.Name == "SPEC77" {
			small := series["BYP 4/16"]
			last := len(small) - 1
			if small[last].Cycles <= byp[last].Cycles {
				t.Errorf("SPEC77: 4-slot load queue (%d) should be slower than 256 (%d)",
					small[last].Cycles, byp[last].Cycles)
			}
		}
	}
	// DYFESM leads the bypass gains at L=1 (paper: 22.0%).
	var dyfesmGain float64
	for _, p := range r.Programs {
		series := map[string][]Figure7Point{}
		for _, ser := range p.Series {
			series[ser.Name] = ser.Points
		}
		gain := float64(series["DVA 256/16"][0].Cycles) / float64(series["BYP 256/16"][0].Cycles)
		if p.Name == "DYFESM" {
			dyfesmGain = gain
		}
	}
	if dyfesmGain < 1.10 {
		t.Errorf("DYFESM bypass gain at L=1 is %.2f, expected the paper's large benefit", dyfesmGain)
	}
}

func TestFigure8Shapes(t *testing.T) {
	r, err := Figure8(context.Background(), suite(t), 30)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Figure8Row{}
	for _, row := range r.Rows {
		byName[row.Name] = row
		if row.BypElems > row.DvaElems {
			t.Errorf("%s: bypass increased traffic", row.Name)
		}
		if row.ReductionFrac < 0 || row.ReductionFrac > 0.6 {
			t.Errorf("%s: reduction %.2f out of plausible range", row.Name, row.ReductionFrac)
		}
	}
	// The paper's ordering: DYFESM and TRFD show the largest reductions;
	// SPEC77 essentially none.
	if byName["SPEC77"].ReductionFrac > 0.05 {
		t.Errorf("SPEC77 reduction %.2f should be tiny", byName["SPEC77"].ReductionFrac)
	}
	if byName["DYFESM"].ReductionFrac < 0.15 || byName["TRFD"].ReductionFrac < 0.15 {
		t.Errorf("DYFESM/TRFD reductions too small: %.2f / %.2f",
			byName["DYFESM"].ReductionFrac, byName["TRFD"].ReductionFrac)
	}
}

func TestAblationIQ(t *testing.T) {
	r, err := AblationIQ(context.Background(), suite(t), 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Programs {
		// §5 found 16 slots within 2% of 512 on the real traces; on our
		// synthetic traces the scalar spill round-trips couple the AP and
		// SP harder, so we assert the weaker band documented in
		// EXPERIMENTS.md: 16 within 15% of 512, and the curve monotone.
		var at16, at512 int64
		var prev int64 = 1 << 62
		for _, pt := range p.Points {
			switch pt.Value {
			case 16:
				at16 = pt.Cycles
			case 512:
				at512 = pt.Cycles
			}
			if float64(pt.Cycles) > float64(prev)*1.01 {
				t.Errorf("%s: cycles not monotone in IQ size at %d (%d after %d)",
					p.Name, pt.Value, pt.Cycles, prev)
			}
			prev = pt.Cycles
		}
		limit := 1.15
		if p.Name == "SPEC77" {
			// SPEC77's six-load bursts nearly fill a 16-slot VPIQ with a
			// single iteration (6 QMOVs + 7 computations), so it leans on
			// instruction-queue depth the way it leans on AVDQ depth.
			limit = 1.30
		}
		if float64(at16) > float64(at512)*limit {
			t.Errorf("%s: IQ=16 (%d) more than %.0f%% over IQ=512 (%d)",
				p.Name, at16, 100*(limit-1), at512)
		}
	}
}

func TestAblationVSQ(t *testing.T) {
	r, err := AblationVSQ(context.Background(), suite(t), 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Programs {
		var at8, at16 int64
		for _, pt := range p.Points {
			switch pt.Value {
			case 8:
				at8 = pt.Cycles
			case 16:
				at16 = pt.Cycles
			}
		}
		// §7: eight slots capture ~95% of sixteen's performance.
		if float64(at8) > float64(at16)*1.08 {
			t.Errorf("%s: VSQ=8 (%d) more than 8%% over VSQ=16 (%d)", p.Name, at8, at16)
		}
	}
}

func TestAblationAVDQ(t *testing.T) {
	r, err := AblationAVDQ(context.Background(), suite(t), 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Programs {
		var at4, at256 int64
		for _, pt := range p.Points {
			switch pt.Value {
			case 4:
				at4 = pt.Cycles
			case 256:
				at256 = pt.Cycles
			}
		}
		limit := 1.10
		if p.Name == "SPEC77" {
			// SPEC77 genuinely needs the queue depth (§7).
			limit = 1.60
			if float64(at4) <= float64(at256)*1.02 {
				t.Errorf("SPEC77 should visibly suffer with a 4-slot AVDQ (%d vs %d)", at4, at256)
			}
		}
		if float64(at4) > float64(at256)*limit {
			t.Errorf("%s: AVDQ=4 (%d) exceeds %.0f%% over AVDQ=256 (%d)",
				p.Name, at4, 100*(limit-1), at256)
		}
	}
}

func TestParallelPropagatesError(t *testing.T) {
	errBoom := parallel([]func() error{
		func() error { return nil },
		func() error { return errTest },
	})
	if !errors.Is(errBoom, errTest) {
		t.Errorf("got %v", errBoom)
	}
	if err := parallel(nil); err != nil {
		t.Errorf("empty jobs: %v", err)
	}
}

// parallel used to drain only the first error; every failing job must now
// surface in the joined aggregate.
func TestParallelCollectsAllErrors(t *testing.T) {
	errOther := &testError{msg: "other"}
	err := parallel([]func() error{
		func() error { return errTest },
		func() error { return nil },
		func() error { return errOther },
	})
	if !errors.Is(err, errTest) || !errors.Is(err, errOther) {
		t.Errorf("joined error %v is missing one of the two job errors", err)
	}
}

var errTest = &testError{msg: "boom"}

type testError struct{ msg string }

func (e *testError) Error() string { return e.msg }

func TestExtensionOOOShapes(t *testing.T) {
	s := suite(t)
	r, err := ExtensionOOO(context.Background(), s, []int64{1, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 12 { // 6 programs x 2 latencies
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// A large-window machine with renaming should match or beat the
		// in-order reference everywhere.
		big := row.Ooo[len(row.Ooo)-1]
		if float64(big) > float64(row.Ref)*1.02 {
			t.Errorf("%s L=%d: OOO-w64 (%d) worse than REF (%d)", row.Name, row.Latency, big, row.Ref)
		}
		// Windows are monotone: more window never hurts.
		for i := 1; i < len(row.Ooo); i++ {
			if row.Ooo[i] > row.Ooo[i-1]*101/100 {
				t.Errorf("%s L=%d: OOO window scaling not monotone: %v", row.Name, row.Latency, row.Ooo)
			}
		}
	}
	// The headline of the follow-on literature: at high latency a big
	// window with renaming beats plain decoupling, while a small window
	// does not.
	var bigWins, smallLoses int
	for _, row := range r.Rows {
		if row.Latency != 100 {
			continue
		}
		if row.Ooo[len(row.Ooo)-1] <= row.Dva {
			bigWins++
		}
		if row.Ooo[0] >= row.Dva {
			smallLoses++
		}
	}
	if bigWins < 4 {
		t.Errorf("OOO-w64 beats DVA on only %d/6 programs at L=100", bigWins)
	}
	if smallLoses < 4 {
		t.Errorf("OOO-w4 loses to DVA on only %d/6 programs at L=100", smallLoses)
	}
}

func TestExtensionConflictsShapes(t *testing.T) {
	r, err := ExtensionConflicts(context.Background(), suite(t), 20, []int64{0, 60, 120})
	if err != nil {
		t.Fatal(err)
	}
	// Collect per-program speedup series.
	series := map[string][]float64{}
	for _, row := range r.Rows {
		series[row.Name] = append(series[row.Name], row.Speedup)
	}
	for name, sp := range series {
		// Decoupling tolerates conflict-induced latency variation: the
		// speedup must not shrink as jitter grows (except lockstepped
		// DYFESM, which is allowed to stay flat).
		if sp[len(sp)-1] < sp[0]-0.05 {
			t.Errorf("%s: speedup fell with jitter: %v", name, sp)
		}
		if name != "DYFESM" && name != "BDNA" && sp[len(sp)-1] < sp[0]+0.05 {
			t.Errorf("%s: speedup did not grow with jitter: %v", name, sp)
		}
	}
}

func TestAblationQMov(t *testing.T) {
	r, err := AblationQMov(context.Background(), suite(t), 50)
	if err != nil {
		t.Fatal(err)
	}
	var anyHurt bool
	for _, p := range r.Programs {
		var at1, at2, at4 int64
		for _, pt := range p.Points {
			switch pt.Value {
			case 1:
				at1 = pt.Cycles
			case 2:
				at2 = pt.Cycles
			case 4:
				at4 = pt.Cycles
			}
		}
		// §4.3: one unit pays a high overhead on common sequences...
		if float64(at1) > float64(at2)*1.02 {
			anyHurt = true
		}
		if at1 < at2 {
			t.Errorf("%s: one QMOV unit cannot beat two (%d vs %d)", p.Name, at1, at2)
		}
		// ...while a third/fourth unit buys almost nothing — except for
		// SPEC77, whose six-load bursts can drain in parallel.
		limit := 1.03
		if p.Name == "SPEC77" {
			limit = 1.08
		}
		if float64(at2) > float64(at4)*limit {
			t.Errorf("%s: two units (%d) should be within %.0f%% of four (%d)",
				p.Name, at2, 100*(limit-1), at4)
		}
	}
	if !anyHurt {
		t.Error("no program paid a penalty with a single QMOV unit; the paper's rationale should be visible")
	}
}

func TestExtensionPortsShapes(t *testing.T) {
	r, err := ExtensionPorts(context.Background(), suite(t), []int64{1, 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		// A second port never hurts.
		if row.Dva2 > row.Dva1*101/100 {
			t.Errorf("%s L=%d: second port slowed the DVA (%d vs %d)",
				row.Name, row.Latency, row.Dva2, row.Dva1)
		}
	}
	// On the spill-dominated recurrence programs the bypass captures a
	// benefit comparable to a real second port; on the pure-bandwidth
	// programs (ARC2D/FLO52) the real port wins clearly.
	byKey := map[string]PortsRow{}
	for _, row := range r.Rows {
		if row.Latency == 50 {
			byKey[row.Name] = row
		}
	}
	if d := byKey["TRFD"]; d.BypGain < d.PortGain-0.02 {
		t.Errorf("TRFD: bypass gain %.2f should rival the second port's %.2f", d.BypGain, d.PortGain)
	}
	if f := byKey["FLO52"]; f.PortGain < f.BypGain+0.10 {
		t.Errorf("FLO52: a real second port (%.2f) should clearly beat the bypass (%.2f)", f.PortGain, f.BypGain)
	}
}
