package crossval_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/crossval"
	"repro/internal/scalectl"
)

// The checked-in artifacts are golden files for the two report schemas:
// both loaders decode with DisallowUnknownFields, so any field renamed,
// removed, or added on one side without regenerating the artifact (or
// updating the struct) fails here rather than silently decoding to zero
// values downstream.

func TestScaleupGoldenSchema(t *testing.T) {
	r, err := scalectl.LoadReport("../../SCALEUP.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.LoadLevels) == 0 || r.MaxReplicas < 1 {
		t.Fatalf("sweep axes missing: loads %v, maxReplicas %d", r.LoadLevels, r.MaxReplicas)
	}
	if len(r.MeasuredShares) == 0 {
		t.Fatal("SCALEUP.json has no measured demand shares; crossval calibration depends on them")
	}
	names := map[string]bool{}
	for _, svc := range r.Services {
		names[svc.Service] = true
		if len(svc.Points) == 0 {
			t.Fatalf("%s: empty curve", svc.Service)
		}
		if svc.Replicable && svc.Knee < 1 {
			t.Fatalf("%s: replicable service with knee %d", svc.Service, svc.Knee)
		}
		for _, p := range svc.Points {
			if p.Replicas < 1 || p.Load < 1 {
				t.Fatalf("%s: point with non-positive axes: %+v", svc.Service, p)
			}
		}
	}
	if !names["webui"] {
		t.Fatal("SCALEUP.json lacks a webui curve; crossval anchors its calibration on it")
	}
}

func TestCrossvalGoldenSchema(t *testing.T) {
	r, err := crossval.LoadReport("../../CROSSVAL.json")
	if err != nil {
		t.Fatal(err)
	}
	if r.Mode != "sweep" {
		t.Fatalf("checked-in verdict mode %q, want a full sweep", r.Mode)
	}
	if !r.Verdict.Pass {
		t.Fatal("checked-in CROSSVAL.json records a failing verdict; regenerate with cmd/crossval -quick")
	}
	if len(r.Verdict.Checks) == 0 {
		t.Fatal("verdict carries no checks")
	}
	cal := r.Calibration
	if cal.AnchorService == "" || cal.AnchorWorkers < 1 || cal.TotalDemandMs <= 0 {
		t.Fatalf("calibration anchor incomplete: %+v", cal)
	}
	if len(cal.Factors) == 0 || len(cal.TargetShares) == 0 || len(cal.AchievedShares) == 0 {
		t.Fatal("calibration shares/factors missing")
	}
	if cal.Residual < 0 || cal.Residual > r.Tolerances.Residual {
		t.Fatalf("recorded residual %.4f violates its own tolerance %.2f", cal.Residual, r.Tolerances.Residual)
	}
	if len(r.Services) == 0 {
		t.Fatal("no per-service agreements recorded")
	}
	for _, s := range r.Services {
		if s.Service == "" || len(s.RealCurve) == 0 || len(s.SimCurve) == 0 {
			t.Fatalf("agreement for %q missing curves", s.Service)
		}
		if s.CurveNRMSE < 0 || s.CurveNRMSE > 1 {
			t.Fatalf("%s: NRMSE %v out of [0,1]", s.Service, s.CurveNRMSE)
		}
	}
	if len(r.RealOrdering) != len(r.Services) || len(r.SimOrdering) != len(r.Services) {
		t.Fatalf("orderings %v/%v don't cover the %d compared services",
			r.RealOrdering, r.SimOrdering, len(r.Services))
	}
	if r.OrderingAgrees == nil {
		t.Fatal("sweep-mode report omits the ordering verdict")
	}
}

// TestLoadReportRejectsUnknownFields pins the strictness itself: a
// report with a stray field must not load, in either schema.
func TestLoadReportRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	writeTemp := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if _, err := crossval.LoadReport(writeTemp("c.json",
		`{"scenario":"x","mode":"sweep","bogus":1}`)); err == nil {
		t.Fatal("crossval.LoadReport accepted an unknown field")
	}
	if _, err := scalectl.LoadReport(writeTemp("s.json",
		`{"loads":[4],"maxReplicas":2,"services":[{"service":"webui"}],"bogus":1}`)); err == nil {
		t.Fatal("scalectl.LoadReport accepted an unknown field")
	}
	// Missing required content is rejected too, not decoded to zeroes.
	if _, err := crossval.LoadReport(writeTemp("empty.json", `{}`)); err == nil {
		t.Fatal("crossval.LoadReport accepted a report with no scenario")
	}
	if _, err := scalectl.LoadReport(writeTemp("nosvc.json",
		`{"loads":[4],"maxReplicas":2}`)); err == nil {
		t.Fatal("scalectl.LoadReport accepted a report with no service curves")
	}
}
