package netsim

import (
	"math/rand"
	"testing"

	"agentring/internal/core"
	"agentring/internal/ring"
	"agentring/internal/sim"
	"agentring/internal/verify"
	"agentring/internal/workload"
)

// TestCrossValidateAgainstCoroutineEngine runs Algorithm 1 on both
// substrates — the deterministic atomic-action engine (internal/sim) and
// this concurrent message-passing runtime — and demands *identical*
// final positions. The algorithm's decisions depend only on the token
// geometry, so any divergence would expose a semantics bug in one of
// the substrates.
func TestCrossValidateAgainstCoroutineEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(60)
		k := 1 + rng.Intn(n)
		homeIDs, err := workload.Random(n, k, rng)
		if err != nil {
			t.Fatal(err)
		}

		// Substrate 1: atomic-action engine.
		programs := make([]sim.Program, k)
		for i := range programs {
			p, err := core.NewAlg1(core.KnowAgents, k)
			if err != nil {
				t.Fatal(err)
			}
			programs[i] = p
		}
		engine, err := sim.NewEngine(ring.MustNew(n), homeIDs, programs, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		simRes, err := engine.Run()
		if err != nil {
			t.Fatalf("sim run n=%d k=%d: %v", n, k, err)
		}

		// Substrate 2: message-passing runtime.
		homes := make([]int, k)
		machines := make([]Machine, k)
		for i, h := range homeIDs {
			homes[i] = int(h)
			machines[i] = Alg1Machine{K: k}
		}
		netRes, err := Run(n, homes, machines, Options{})
		if err != nil {
			t.Fatalf("netsim run n=%d k=%d: %v", n, k, err)
		}

		for i := range homes {
			if int(simRes.Agents[i].Node) != netRes.Agents[i].Node {
				t.Fatalf("n=%d k=%d agent %d: sim node %d != netsim node %d (homes %v)",
					n, k, i, simRes.Agents[i].Node, netRes.Agents[i].Node, homes)
			}
			if simRes.Agents[i].Moves != netRes.Agents[i].Moves {
				t.Fatalf("n=%d k=%d agent %d: sim moves %d != netsim moves %d",
					n, k, i, simRes.Agents[i].Moves, netRes.Agents[i].Moves)
			}
		}
		if simRes.TotalMoves != netRes.TotalMoves {
			t.Fatalf("n=%d k=%d: total moves diverge %d vs %d", n, k, simRes.TotalMoves, netRes.TotalMoves)
		}
	}
}

// TestNetsimUniformDeployment checks the Definition 1 outcome directly
// on the concurrent substrate.
func TestNetsimUniformDeployment(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(48)
		k := 1 + rng.Intn(n/2+1)
		homeIDs, err := workload.Random(n, k, rng)
		if err != nil {
			t.Fatal(err)
		}
		homes := make([]int, k)
		machines := make([]Machine, k)
		for i, h := range homeIDs {
			homes[i] = int(h)
			machines[i] = Alg1Machine{K: k}
		}
		res, err := Run(n, homes, machines, Options{})
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", n, k, err)
		}
		positions := make([]ring.NodeID, k)
		for i, p := range res.Positions() {
			positions[i] = ring.NodeID(p)
		}
		if why := verify.ExplainNonUniform(n, positions); why != "" {
			t.Fatalf("n=%d k=%d homes=%v: %s", n, k, homes, why)
		}
		for i, a := range res.Agents {
			if !a.Halted {
				t.Fatalf("agent %d not halted", i)
			}
		}
	}
}

// TestNetsimClustered runs the lower-bound configuration concurrently.
func TestNetsimClustered(t *testing.T) {
	const n, k = 64, 16
	machines := make([]Machine, k)
	homes := make([]int, k)
	for i := range machines {
		machines[i] = Alg1Machine{K: k}
		homes[i] = i
	}
	res, err := Run(n, homes, machines, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMoves < k*n/16 {
		t.Errorf("moves %d below the Theorem 1 floor %d", res.TotalMoves, k*n/16)
	}
}
