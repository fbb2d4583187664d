package wind

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"compoundthreat/internal/geo"
	"compoundthreat/internal/racetest"
)

func cat2Point(offset time.Duration, center geo.Point) TrackPoint {
	return TrackPoint{
		Offset:             offset,
		Center:             center,
		CentralPressureHPa: 955,
		RMaxMeters:         40000,
		HollandB:           1.6,
	}
}

func mustTrack(t *testing.T, pts []TrackPoint) *Track {
	t.Helper()
	tr, err := NewTrack(pts)
	if err != nil {
		t.Fatalf("NewTrack: %v", err)
	}
	return tr
}

func TestCategorize(t *testing.T) {
	tests := []struct {
		windMS float64
		want   Category
	}{
		{20, TropicalStorm},
		{33, Cat1},
		{42.9, Cat1},
		{43, Cat2},
		{49, Cat2},
		{50, Cat3},
		{58, Cat4},
		{70, Cat5},
		{90, Cat5},
	}
	for _, tt := range tests {
		if got := Categorize(tt.windMS); got != tt.want {
			t.Errorf("Categorize(%v) = %v, want %v", tt.windMS, got, tt.want)
		}
	}
}

func TestCategoryString(t *testing.T) {
	if got := Cat2.String(); got != "CAT2" {
		t.Errorf("Cat2.String() = %q", got)
	}
	if got := TropicalStorm.String(); got != "TS" {
		t.Errorf("TropicalStorm.String() = %q", got)
	}
	if got := Category(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown category String() = %q", got)
	}
}

func TestNewTrackValidation(t *testing.T) {
	base := cat2Point(0, geo.Point{Lat: 20, Lon: -158})
	later := cat2Point(6*time.Hour, geo.Point{Lat: 21, Lon: -158.5})
	tests := []struct {
		name string
		pts  []TrackPoint
	}{
		{"too short", []TrackPoint{base}},
		{"non-increasing offsets", []TrackPoint{base, cat2Point(0, geo.Point{Lat: 21, Lon: -158})}},
		{
			"bad pressure",
			[]TrackPoint{base, {Offset: time.Hour, Center: later.Center, CentralPressureHPa: 1020, RMaxMeters: 40000, HollandB: 1.6}},
		},
		{
			"bad rmax",
			[]TrackPoint{base, {Offset: time.Hour, Center: later.Center, CentralPressureHPa: 955, RMaxMeters: 0, HollandB: 1.6}},
		},
		{
			"bad B",
			[]TrackPoint{base, {Offset: time.Hour, Center: later.Center, CentralPressureHPa: 955, RMaxMeters: 40000, HollandB: 5}},
		},
		{
			"bad center",
			[]TrackPoint{base, {Offset: time.Hour, Center: geo.Point{Lat: 95, Lon: 0}, CentralPressureHPa: 955, RMaxMeters: 40000, HollandB: 1.6}},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewTrack(tt.pts); err == nil {
				t.Error("NewTrack should have failed")
			}
		})
	}
	if _, err := NewTrack([]TrackPoint{base, later}); err != nil {
		t.Errorf("valid track rejected: %v", err)
	}
}

func TestTrackInterpolation(t *testing.T) {
	a := cat2Point(0, geo.Point{Lat: 20, Lon: -158})
	b := cat2Point(10*time.Hour, geo.Point{Lat: 21, Lon: -158})
	b.CentralPressureHPa = 965
	tr := mustTrack(t, []TrackPoint{a, b})

	mid := tr.At(5 * time.Hour)
	if math.Abs(mid.Center.Lat-20.5) > 0.01 {
		t.Errorf("midpoint lat = %v, want ~20.5", mid.Center.Lat)
	}
	if math.Abs(mid.CentralPressureHPa-960) > 1e-9 {
		t.Errorf("midpoint pressure = %v, want 960", mid.CentralPressureHPa)
	}
	// Forward speed: 1 degree latitude / 10 h ~ 11.1 km/h ~ 3.09 m/s due north.
	if mid.TranslationEastMS > 0.1 || math.Abs(mid.TranslationNorthMS-3.09) > 0.05 {
		t.Errorf("translation = (%v, %v), want (~0, ~3.09)", mid.TranslationEastMS, mid.TranslationNorthMS)
	}
}

func TestTrackClamping(t *testing.T) {
	a := cat2Point(0, geo.Point{Lat: 20, Lon: -158})
	b := cat2Point(10*time.Hour, geo.Point{Lat: 21, Lon: -158})
	tr := mustTrack(t, []TrackPoint{a, b})
	before := tr.At(-time.Hour)
	if before.Center != a.Center {
		t.Errorf("before-start center = %v, want %v", before.Center, a.Center)
	}
	if before.TranslationEastMS != 0 || before.TranslationNorthMS != 0 {
		t.Error("clamped state should have zero translation")
	}
	after := tr.At(20 * time.Hour)
	if after.Center != b.Center {
		t.Errorf("after-end center = %v, want %v", after.Center, b.Center)
	}
	if got := tr.Duration(); got != 10*time.Hour {
		t.Errorf("Duration = %v, want 10h", got)
	}
}

func TestStateMaxWindCategory(t *testing.T) {
	// 955 hPa with B=1.6 should be a strong CAT2 at the surface.
	s := stateFromPoint(cat2Point(0, geo.Point{Lat: 21, Lon: -158}))
	v := s.MaxSurfaceWindMS()
	if v < 43 || v > 50 {
		t.Errorf("max surface wind = %v m/s, want CAT2 range [43, 50)", v)
	}
	if got := s.Category(); got != Cat2 {
		t.Errorf("Category = %v, want CAT2", got)
	}
}

func TestSampleAtCenterCalm(t *testing.T) {
	s := stateFromPoint(cat2Point(0, geo.Point{Lat: 21, Lon: -158}))
	got := s.SampleAt(geo.Point{Lat: 21, Lon: -158})
	if got.SpeedMS != 0 {
		t.Errorf("center wind = %v, want 0", got.SpeedMS)
	}
	if got.PressureHPa != 955 {
		t.Errorf("center pressure = %v, want 955", got.PressureHPa)
	}
}

func TestSamplePeakNearRMax(t *testing.T) {
	s := stateFromPoint(cat2Point(0, geo.Point{Lat: 21, Lon: -158}))
	proj := geo.NewProjection(s.Center)
	speedAt := func(rMeters float64) float64 {
		p := proj.ToPoint(geo.XY{X: rMeters, Y: 0})
		return s.SampleAt(p).SpeedMS
	}
	atRmax := speedAt(40000)
	if inner := speedAt(8000); inner >= atRmax {
		t.Errorf("wind inside eye (%v) should be below RMax wind (%v)", inner, atRmax)
	}
	if outer := speedAt(200000); outer >= atRmax {
		t.Errorf("far-field wind (%v) should be below RMax wind (%v)", outer, atRmax)
	}
	// The peak sample should be within 10% of the analytic max.
	if rel := math.Abs(atRmax-s.MaxSurfaceWindMS()) / s.MaxSurfaceWindMS(); rel > 0.1 {
		t.Errorf("RMax wind %v deviates %.1f%% from analytic %v", atRmax, rel*100, s.MaxSurfaceWindMS())
	}
}

func TestSampleRotationCCW(t *testing.T) {
	// Northern hemisphere: at a point due east of the center, the
	// tangential wind blows toward the north (CCW), rotated slightly
	// inward (westward) by the inflow angle.
	s := stateFromPoint(cat2Point(0, geo.Point{Lat: 21, Lon: -158}))
	proj := geo.NewProjection(s.Center)
	east := proj.ToPoint(geo.XY{X: 40000, Y: 0})
	sample := s.SampleAt(east)
	if sample.DirNorth <= 0 {
		t.Errorf("east of center, wind north component = %v, want > 0", sample.DirNorth)
	}
	if sample.DirEast >= 0 {
		t.Errorf("east of center, inflow should give negative east component, got %v", sample.DirEast)
	}
}

func TestSamplePressureProfile(t *testing.T) {
	s := stateFromPoint(cat2Point(0, geo.Point{Lat: 21, Lon: -158}))
	proj := geo.NewProjection(s.Center)
	pAt := func(rMeters float64) float64 {
		return s.SampleAt(proj.ToPoint(geo.XY{X: rMeters, Y: 0})).PressureHPa
	}
	if p := pAt(10000); p < 955 || p > 1013 {
		t.Errorf("pressure at 10 km = %v out of [955, 1013]", p)
	}
	if pAt(10000) >= pAt(100000) {
		t.Error("pressure should increase with radius")
	}
	if p := pAt(1e6); math.Abs(p-AmbientPressureHPa) > 1 {
		t.Errorf("far-field pressure = %v, want ~%v", p, AmbientPressureHPa)
	}
}

func TestAsymmetryRightSideStronger(t *testing.T) {
	// Storm moving north: the right side (east) should see stronger
	// winds than the left side (west) at the same radius.
	a := cat2Point(0, geo.Point{Lat: 20, Lon: -158})
	b := cat2Point(6*time.Hour, geo.Point{Lat: 21.5, Lon: -158})
	tr := mustTrack(t, []TrackPoint{a, b})
	s := tr.At(3 * time.Hour)
	proj := geo.NewProjection(s.Center)
	right := s.SampleAt(proj.ToPoint(geo.XY{X: s.RMaxMeters, Y: 0}))
	left := s.SampleAt(proj.ToPoint(geo.XY{X: -s.RMaxMeters, Y: 0}))
	if right.SpeedMS <= left.SpeedMS {
		t.Errorf("right side %v should exceed left side %v", right.SpeedMS, left.SpeedMS)
	}
}

func TestSampleDirUnit(t *testing.T) {
	s := stateFromPoint(cat2Point(0, geo.Point{Lat: 21, Lon: -158}))
	proj := geo.NewProjection(s.Center)
	f := func(x, y float64) bool {
		p := proj.ToPoint(geo.XY{X: math.Mod(x, 300000), Y: math.Mod(y, 300000)})
		sm := s.SampleAt(p)
		if sm.SpeedMS == 0 {
			return sm.DirEast == 0 && sm.DirNorth == 0
		}
		norm := math.Hypot(sm.DirEast, sm.DirNorth)
		return math.Abs(norm-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTrackPointsDefensiveCopy(t *testing.T) {
	pts := []TrackPoint{
		cat2Point(0, geo.Point{Lat: 20, Lon: -158}),
		cat2Point(time.Hour, geo.Point{Lat: 21, Lon: -158}),
	}
	tr := mustTrack(t, pts)
	pts[0].CentralPressureHPa = 900
	if got := tr.Points()[0].CentralPressureHPa; got != 955 {
		t.Errorf("track aliased caller slice: pressure = %v", got)
	}
	out := tr.Points()
	out[1].RMaxMeters = 1
	if got := tr.Points()[1].RMaxMeters; got != 40000 {
		t.Errorf("Points exposed internal slice: rmax = %v", got)
	}
}

// referenceSampleAt is a verbatim retention of the pre-Sampler
// per-call SampleAt body (per-point constant recomputation, separate
// exponentials). The Sampler hoists and deduplicates those
// computations; this reference pins that the results stayed
// bit-identical.
func referenceSampleAt(s State, p geo.Point) Sample {
	proj := geo.NewProjection(s.Center)
	rel := proj.ToXY(p)
	r := rel.Norm()

	dp := s.PressureDeficitHPa() * 100
	b := s.HollandB

	if r < 1 {
		return Sample{PressureHPa: s.CentralPressureHPa}
	}

	ratio := math.Pow(s.RMaxMeters/r, b)
	pressure := s.CentralPressureHPa + s.PressureDeficitHPa()*math.Exp(-ratio)

	f := math.Abs(coriolis(s.Center.Lat))
	rotTerm := b * dp / airDensity * ratio * math.Exp(-ratio)
	corTerm := r * f / 2
	vg := math.Sqrt(rotTerm+corTerm*corTerm) - corTerm
	if vg < 0 {
		vg = 0
	}
	vs := gradientToSurface * vg

	radial := rel.Unit()
	tangential := radial.Perp()
	inflow := inflowAngleDeg * math.Pi / 180
	dir := geo.XY{
		X: tangential.X*math.Cos(inflow) - radial.X*math.Sin(inflow),
		Y: tangential.Y*math.Cos(inflow) - radial.Y*math.Sin(inflow),
	}

	vel := dir.Scale(vs)
	trans := geo.XY{X: s.TranslationEastMS, Y: s.TranslationNorthMS}
	if tn := trans.Norm(); tn > 0 && vs > 0 {
		align := (tangential.Dot(trans)/tn + 1) / 2
		weight := asymmetryFraction * align * math.Exp(-math.Abs(r-s.RMaxMeters)/(4*s.RMaxMeters))
		vel = vel.Add(trans.Scale(weight))
	}

	speed := vel.Norm()
	sample := Sample{SpeedMS: speed, PressureHPa: pressure}
	if speed > 0 {
		u := vel.Scale(1 / speed)
		sample.DirEast, sample.DirNorth = u.X, u.Y
	}
	return sample
}

func TestSamplerMatchesReference(t *testing.T) {
	states := []State{
		{
			Center:             geo.Point{Lat: 21.3, Lon: -158},
			CentralPressureHPa: 955, RMaxMeters: 40000, HollandB: 1.6,
			TranslationEastMS: -5, TranslationNorthMS: 2,
		},
		{
			Center:             geo.Point{Lat: 20.5, Lon: -157.2},
			CentralPressureHPa: 975, RMaxMeters: 60000, HollandB: 1.2,
		},
		{
			Center:             geo.Point{Lat: 21.9, Lon: -158.6},
			CentralPressureHPa: 930, RMaxMeters: 25000, HollandB: 2.1,
			TranslationEastMS: 3, TranslationNorthMS: -6,
		},
	}
	for si, st := range states {
		sm := st.Sampler()
		for dLat := -1.0; dLat <= 1.0; dLat += 0.13 {
			for dLon := -1.0; dLon <= 1.0; dLon += 0.17 {
				p := geo.Point{Lat: st.Center.Lat + dLat, Lon: st.Center.Lon + dLon}
				want := referenceSampleAt(st, p)
				if got := st.SampleAt(p); got != want {
					t.Fatalf("state %d SampleAt(%v) = %+v, reference %+v", si, p, got, want)
				}
				if got := sm.SampleAt(p); got != want {
					t.Fatalf("state %d Sampler.SampleAt(%v) = %+v, reference %+v", si, p, got, want)
				}
			}
		}
	}
}

func TestTrackReset(t *testing.T) {
	pts := []TrackPoint{
		{Offset: 0, Center: geo.Point{Lat: 20, Lon: -158}, CentralPressureHPa: 960, RMaxMeters: 40000, HollandB: 1.5},
		{Offset: 6 * time.Hour, Center: geo.Point{Lat: 21, Lon: -158}, CentralPressureHPa: 960, RMaxMeters: 40000, HollandB: 1.5},
	}
	var tr Track
	if err := tr.Reset(pts); err != nil {
		t.Fatal(err)
	}
	if tr.Duration() != 6*time.Hour {
		t.Fatalf("Duration = %v", tr.Duration())
	}

	// A failed Reset must leave the previous fixes intact.
	bad := []TrackPoint{pts[0]}
	if err := tr.Reset(bad); err == nil {
		t.Fatal("Reset with one point should error")
	}
	if got := len(tr.Points()); got != 2 {
		t.Fatalf("after failed Reset: %d points, want previous 2", got)
	}

	// Reset must reuse the backing array: steady-state rebuilds are
	// allocation-free (exact counts only outside the race detector).
	if !racetest.Enabled {
		allocs := testing.AllocsPerRun(10, func() {
			if err := tr.Reset(pts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("Reset allocates %v per call, want 0", allocs)
		}
	}

	// Reset-built tracks interpolate identically to NewTrack-built ones.
	fresh, err := NewTrack(pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []time.Duration{0, time.Hour, 3 * time.Hour, 6 * time.Hour} {
		if tr.At(off) != fresh.At(off) {
			t.Fatalf("At(%v): Reset track %+v != NewTrack %+v", off, tr.At(off), fresh.At(off))
		}
	}
}
