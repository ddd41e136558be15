package main

import "testing"

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "nope", "-scale", "50"}); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bad flag should fail")
	}
}

func TestRunFig7NoWorldNeeded(t *testing.T) {
	if err := run([]string{"-experiment", "fig7"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunOverhead(t *testing.T) {
	if err := run([]string{"-experiment", "overhead"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSmallWorldExperiments(t *testing.T) {
	// Exercise the world-building paths end to end at tiny scale.
	cases := [][]string{
		{"-experiment", "table1", "-scale", "300", "-guids", "200", "-lookups", "1000", "-cdf", "5"},
		{"-experiment", "caching", "-scale", "300", "-guids", "100", "-lookups", "500"},
		{"-experiment", "holes", "-scale", "300", "-guids", "500"},
		{"-experiment", "update", "-scale", "300", "-guids", "300"},
		{"-experiment", "ablation-m", "-scale", "300", "-guids", "1000"},
	}
	for _, args := range cases {
		args := args
		t.Run(args[1], func(t *testing.T) {
			if err := run(args); err != nil {
				t.Fatalf("run(%v): %v", args, err)
			}
		})
	}
}
