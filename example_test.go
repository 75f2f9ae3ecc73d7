package crn_test

import (
	"context"
	"fmt"
	"log"

	"crn"
)

// ExampleNew generates a deterministic scenario and prints its
// derived model parameters.
func ExampleNew() {
	scenario, err := crn.New(
		crn.WithTopology(crn.Path),
		crn.WithNodes(6),
		crn.WithChannels(4, 2, 0),
		crn.WithSeed(1),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(scenario)
	// Output: n=6 c=4 k=2 kmax=2 Δ=2 D=5 edges=5
}

// ExampleDiscovery runs CSEEK on a tiny path network; the simulation
// is deterministic for a fixed seed.
func ExampleDiscovery() {
	scenario, err := crn.New(
		crn.WithTopology(crn.Path),
		crn.WithNodes(4),
		crn.WithChannels(3, 2, 0),
		crn.WithSeed(2),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := crn.Discovery(crn.CSeek).Run(context.Background(), scenario, 3)
	if err != nil {
		log.Fatal(err)
	}
	d := res.Discovery
	fmt.Printf("all discovered: %v (%d/%d pairs)\n",
		d.AllDiscovered(), d.PairsDiscovered, d.PairsTotal)
	// Output: all discovered: true (6/6 pairs)
}

// ExampleScenario_NewBroadcastSession sets CGCAST up once and sends
// two messages from different sources.
func ExampleScenario_NewBroadcastSession() {
	scenario, err := crn.New(
		crn.WithTopology(crn.Path),
		crn.WithNodes(5),
		crn.WithChannels(3, 2, 0),
		crn.WithSeed(4),
	)
	if err != nil {
		log.Fatal(err)
	}
	session, err := scenario.NewBroadcastSession(5)
	if err != nil {
		log.Fatal(err)
	}
	for _, source := range []int{0, 4} {
		res, err := session.Broadcast(source, "ping", 6)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("from %d: all informed = %v\n", source, res.AllInformed)
	}
	// Output:
	// from 0: all informed = true
	// from 4: all informed = true
}

// ExampleNewCustomScenario wires an explicit topology with hand-picked
// channel sets — the escape hatch for modeling real deployments.
func ExampleNewCustomScenario() {
	scenario, err := crn.NewCustomScenario(crn.CustomConfig{
		N:        3,
		Edges:    [][2]int{{0, 1}, {1, 2}},
		Universe: 4,
		Channels: [][]int{
			{0, 1},
			{0, 2},
			{2, 3},
		},
		Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("k=%d kmax=%d\n", scenario.K(), scenario.KMax())
	// Output: k=1 kmax=1
}
