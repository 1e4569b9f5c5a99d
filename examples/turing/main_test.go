package main

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// reference is the Go interpreter the RNIC machine is checked against:
// the configuration a step leaves, computed on the host.
type reference struct {
	state uint64
	head  int
	tape  []uint64
}

func newReference(cells int) *reference {
	return &reference{state: stateA, head: cells / 2, tape: make([]uint64, cells)}
}

// rule returns the transition r fires next, or false when none matches.
func (r *reference) rule(rules []rule) (rule, bool) {
	for _, ru := range rules {
		if ru.s == r.state && ru.sym == r.tape[r.head] {
			return ru, true
		}
	}
	return rule{}, false
}

// apply fires ru: write, move, change state.
func (r *reference) apply(ru rule) {
	r.tape[r.head] = ru.out
	r.head += int(int64(ru.dir)) / cell
	r.state = ru.next
}

// run is one machine's differential run.
type run struct {
	steps  int
	halted bool
	wrs    uint64   // WRs the NIC executed
	virt   sim.Time // virtual time the steps took
	tape   string   // the tape it left
}

// runDifferential runs rules on the RNIC for at most maxSteps steps,
// stopping at halt or before the head would leave the tape, and after
// every step compares state, head and tape with the reference.
func runDifferential(t testing.TB, rules []rule, maxSteps int) run {
	t.Helper()
	m := newMachine(rules)
	ref := newReference(m.cells)
	var out run
	for out.steps < maxSteps && ref.state != halt {
		ru, ok := ref.rule(rules)
		if !ok {
			t.Fatalf("rules %v are not total: no rule for state %d, symbol %d", rules, ref.state, ref.tape[ref.head])
		}
		if h := ref.head + int(int64(ru.dir))/cell; h < 0 || h >= m.cells {
			break
		}
		ref.apply(ru)
		start := m.clu.Eng.Now()
		m.armStep()
		m.clu.Eng.Run()
		out.virt += m.clu.Eng.Now() - start
		out.steps++
		if got := m.state(); got != ref.state {
			t.Fatalf("rules %v step %d: state %d, want %d", rules, out.steps, got, ref.state)
		}
		if h, _ := m.srv.Mem.U64(m.headReg); h != m.tape+uint64(ref.head)*cell {
			t.Fatalf("rules %v step %d: head at %s, want cell %d", rules, out.steps, m.headPos(), ref.head)
		}
		for i, want := range ref.tape {
			if v, _ := m.srv.Mem.U64(m.tape + uint64(i)*cell); v != want {
				t.Fatalf("rules %v step %d: cell %d = %d, want %d (tape [%s])", rules, out.steps, i, v, want, m.tapeString())
			}
		}
	}
	for n := uint32(0); m.srv.Dev.QPByNum(n) != nil; n++ {
		out.wrs += m.srv.Dev.QPByNum(n).SQ().Executed()
	}
	out.halted, out.tape = ref.state == halt, m.tapeString()
	return out
}

// The example's own machine, pinned: BB-2 halts after 6 steps with four
// ones on the tape.
func TestTuringBusyBeaver(t *testing.T) {
	r := runDifferential(t, bb2, 32)
	if r.steps != 6 || !r.halted {
		t.Fatalf("BB-2 ran %d steps (halted: %v), want 6 and a halt", r.steps, r.halted)
	}
	if want := strings.Repeat(".", 14) + "1111" + strings.Repeat(".", 14); r.tape != want {
		t.Fatalf("BB-2 tape [%s], want [%s]", r.tape, want)
	}
	if ones := strings.Count(r.tape, "1"); ones != 4 {
		t.Fatalf("BB-2 left %d ones, want 4", ones)
	}
}

// randomRules draws a total machine: states 1..states, symbols
// 0..symbols-1, one rule per pair with a random written symbol, move
// and next state, and one rule of a state reachable from A retargeted
// at halt.
func randomRules(rng *rand.Rand, states, symbols int) []rule {
	rules := make([]rule, 0, states*symbols)
	for s := 1; s <= states; s++ {
		for sym := 0; sym < symbols; sym++ {
			rules = append(rules, rule{s: uint64(s), sym: uint64(sym),
				out: uint64(rng.Intn(symbols)), dir: move(rng.Intn(2)), next: uint64(1 + rng.Intn(states))})
		}
	}
	reach := map[uint64]bool{stateA: true}
	for grew := true; grew; {
		grew = false
		for _, ru := range rules {
			if reach[ru.s] && !reach[ru.next] {
				reach[ru.next], grew = true, true
			}
		}
	}
	for {
		if ru := &rules[rng.Intn(len(rules))]; reach[ru.s] {
			ru.next = halt
			return rules
		}
	}
}

// move is the head offset of a right (1) or left (0) move.
func move(right int) uint64 {
	if right == 1 {
		return cell
	}
	return ^uint64(cell) + 1
}

// Seeded differential test: thousands of random total machines, each
// checked step by step against the reference interpreter.
func TestTuringDifferential(t *testing.T) {
	machines := 2000
	if testing.Short() {
		machines = 200
	}
	rng := rand.New(rand.NewSource(1))
	began := time.Now()
	var total run
	halted := 0
	for i := 0; i < machines; i++ {
		rules := randomRules(rng, 2+rng.Intn(3), 2+rng.Intn(2))
		r := runDifferential(t, rules, 32)
		total.steps += r.steps
		total.wrs += r.wrs
		total.virt += r.virt
		if r.halted {
			halted++
		}
	}
	if total.steps == 0 {
		t.Fatal("no machine took a step")
	}
	t.Logf("%d machines (%d halted), %d steps, %.1f WRs/step, %.2f virtual µs/step, %v wall",
		machines, halted, total.steps, float64(total.wrs)/float64(total.steps),
		float64(total.virt)/float64(total.steps)/float64(sim.Microsecond), time.Since(began).Round(time.Millisecond))
}

// rulesFromBytes decodes a fuzz input into a total machine: the first
// two bytes pick the state and symbol counts, then three bytes per rule
// its written symbol, move and next state (halt among the choices).
// Inputs too short for their table decode to nil.
func rulesFromBytes(b []byte) []rule {
	if len(b) < 2 {
		return nil
	}
	states, symbols := 2+int(b[0])%3, 2+int(b[1])%2
	b = b[2:]
	if len(b) < 3*states*symbols {
		return nil
	}
	var rules []rule
	for s := 1; s <= states; s++ {
		for sym := 0; sym < symbols; sym++ {
			next := uint64(1 + int(b[2])%(states+1))
			if next > uint64(states) {
				next = halt
			}
			rules = append(rules, rule{s: uint64(s), sym: uint64(sym),
				out: uint64(int(b[0]) % symbols), dir: move(int(b[1]) % 2), next: next})
			b = b[3:]
		}
	}
	return rules
}

func FuzzTuring(f *testing.F) {
	// BB-2 itself: (A,0) 1 R B, (A,1) 1 L B, (B,0) 1 L A, (B,1) 1 R H.
	f.Add([]byte{0, 0, 1, 1, 1, 1, 0, 1, 1, 0, 0, 1, 1, 2})
	f.Add([]byte{1, 0, 165, 77, 202, 24, 37, 48, 187, 29, 109, 19, 44, 222, 214, 35, 123, 46, 217, 30})
	f.Add([]byte{2, 1, 63, 114, 31, 203, 25, 113, 23, 68, 148, 214, 73, 60, 157, 92,
		52, 96, 190, 49, 32, 30, 105, 254, 218, 160, 238, 232, 185, 153, 127, 92, 124,
		41, 153, 253, 175, 229})
	f.Fuzz(func(t *testing.T, b []byte) {
		if rules := rulesFromBytes(b); rules != nil {
			runDifferential(t, rules, 32)
		}
	})
}
