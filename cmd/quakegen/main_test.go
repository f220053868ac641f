package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunSingleScenarioWithOutputs(t *testing.T) {
	vtk := filepath.Join(t.TempDir(), "m.vtk")
	if err := run("sf10", vtk); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(vtk)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatalf("%s is empty", vtk)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("nope", ""); err == nil {
		t.Error("unknown scenario accepted")
	}
	if err := run("", "x.vtk"); err == nil {
		t.Error("-vtk without -scenario accepted")
	}
	if err := run("", ""); err == nil {
		t.Error("no -scenario accepted")
	}
}
