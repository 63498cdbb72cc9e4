package main

import (
	"testing"

	"fdiam/internal/gen"
)

func TestCheckExact(t *testing.T) {
	good := answer{Diameter: 21, Upper: 21}
	if err := checkExact(good, 21); err != nil {
		t.Fatalf("correct answer flagged: %v", err)
	}
	for name, a := range map[string]answer{
		"wrong diameter": {Diameter: 20, Upper: 20},
		"open corridor":  {Diameter: 21, Upper: 22, Approximate: true},
		"cancelled":      {Diameter: 21, Upper: 21, Cancelled: true},
		"timed out":      {Diameter: 21, Upper: 21, TimedOut: true},
	} {
		if err := checkExact(a, 21); err == nil {
			t.Errorf("%s not flagged", name)
		}
	}
}

func TestCheckCorridor(t *testing.T) {
	for _, a := range []answer{
		{Diameter: 19, Upper: 24, Approximate: true},
		{Diameter: 21, Upper: 21},
		{Diameter: 21, Upper: 30, Approximate: true},
	} {
		if err := checkCorridor(a, 21); err != nil {
			t.Errorf("corridor [%d, %d] containing 21 flagged: %v", a.Diameter, a.Upper, err)
		}
	}
	for _, a := range []answer{
		{Diameter: 22, Upper: 28, Approximate: true}, // lower bound above the truth
		{Diameter: 15, Upper: 20, Approximate: true}, // upper bound below the truth
		{Diameter: 25, Upper: 19, Approximate: true}, // inverted
		{Diameter: 19, Upper: 24, Approximate: true, Cancelled: true},
	} {
		if err := checkCorridor(a, 21); err == nil {
			t.Errorf("corridor [%d, %d] excluding 21 not flagged", a.Diameter, a.Upper)
		}
	}
}

func TestCheckWitness(t *testing.T) {
	g := gen.Path(10) // diameter 9 between the two ends
	if err := checkWitness(g, answer{Diameter: 9, WitnessA: 0, WitnessB: 9}, 1); err != nil {
		t.Fatalf("true witness pair flagged: %v", err)
	}
	for _, a := range []answer{
		{Diameter: 9, WitnessA: 0, WitnessB: 8},
		{Diameter: 9, WitnessA: -1, WitnessB: 9},
		{Diameter: 9, WitnessA: 0, WitnessB: 10},
	} {
		if err := checkWitness(g, a, 1); err == nil {
			t.Errorf("witness pair (%d, %d) not flagged", a.WitnessA, a.WitnessB)
		}
	}
}
