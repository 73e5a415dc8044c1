package fleet

import (
	"fmt"
	"strconv"

	"qvr/internal/motion"
	"qvr/internal/netsim"
	"qvr/internal/pipeline"
	"qvr/internal/randpool"
	"qvr/internal/scene"
)

// Tier is one device/network population slice of a fleet mix.
type Tier struct {
	// Name labels the tier in session names ("flagship", "budget").
	Name string
	// Weight is the tier's relative share of the population.
	Weight int
	// App is the benchmark the tier's users run (scene.AppByName).
	App string
	// FreqMHz is the tier's mobile GPU clock (Table 4 sweeps 300-500).
	FreqMHz float64
	// Network is the tier's access network.
	Network netsim.Condition
	// Profile is the tier's user motion intensity.
	Profile motion.Profile
	// Region is the tier's geographic home, matched against the edge
	// grid's per-region cluster RTTs ("" = unspecified).
	Region string
}

// Mix is a named fleet population: a weighted set of tiers that a
// session count is spread across deterministically.
type Mix struct {
	Name  string
	Tiers []Tier
}

// The built-in fleet populations. "mixed" is the default: the
// multiuser story of the paper's title, with flagship, midrange and
// budget devices on home Wi-Fi, LTE commutes and early-5G cells.
var Mixes = []Mix{
	{
		Name: "mixed",
		Tiers: []Tier{
			{Name: "flagship-wifi", Weight: 3, App: "GRID", FreqMHz: 500, Network: netsim.WiFi, Profile: motion.Intense, Region: "us"},
			{Name: "flagship-lte", Weight: 2, App: "GRID", FreqMHz: 500, Network: netsim.LTE4G, Profile: motion.Calm, Region: "eu"},
			{Name: "midrange-wifi", Weight: 3, App: "HL2-H", FreqMHz: 400, Network: netsim.WiFi, Profile: motion.Normal, Region: "eu"},
			{Name: "budget-5g", Weight: 2, App: "UT3", FreqMHz: 300, Network: netsim.Early5G, Profile: motion.Normal, Region: "ap"},
			{Name: "budget-lte", Weight: 2, App: "Doom3-L", FreqMHz: 300, Network: netsim.LTE4G, Profile: motion.Calm, Region: "us"},
		},
	},
	{
		Name: "flagship",
		Tiers: []Tier{
			{Name: "flagship", Weight: 1, App: "GRID", FreqMHz: 500, Network: netsim.WiFi, Profile: motion.Intense, Region: "us"},
		},
	},
	{
		Name: "congested",
		Tiers: []Tier{
			{Name: "budget-lte", Weight: 3, App: "Doom3-L", FreqMHz: 300, Network: netsim.LTE4G, Profile: motion.Normal, Region: "ap"},
			{Name: "midrange-lte", Weight: 2, App: "HL2-L", FreqMHz: 400, Network: netsim.LTE4G, Profile: motion.Intense, Region: "us"},
			{Name: "budget-5g", Weight: 1, App: "UT3", FreqMHz: 300, Network: netsim.Early5G, Profile: motion.Normal, Region: "ap"},
		},
	},
}

// MixByName looks up a built-in mix.
func MixByName(name string) (Mix, bool) {
	for _, m := range Mixes {
		if m.Name == name {
			return m, true
		}
	}
	return Mix{}, false
}

// MixNames lists the built-in mix names.
func MixNames() []string {
	names := make([]string, len(Mixes))
	for i, m := range Mixes {
		names[i] = m.Name
	}
	return names
}

// Specs expands the mix into n session specs for the given design and
// frame budget. Tier assignment is a deterministic weighted shuffle of
// baseSeed, and each session gets its own derived motion/channel seed,
// so the same (mix, n, baseSeed) always produces the same fleet while
// no two sessions replay the same trace.
func (m Mix) Specs(n int, design pipeline.Design, frames, warmup int, baseSeed int64) ([]SessionSpec, error) {
	return m.SpecsRange(0, n, design, frames, warmup, baseSeed)
}

// SpecsRange expands the mix into the n session specs with global
// indices [start, start+n): session start+i here is identical to
// session start+i of any other call with the same (mix, baseSeed), so
// a scenario timeline can mint later arrivals phase by phase and still
// get the exact population a single up-front Specs call would have
// produced.
func (m Mix) SpecsRange(start, n int, design pipeline.Design, frames, warmup int, baseSeed int64) ([]SessionSpec, error) {
	if start < 0 {
		return nil, fmt.Errorf("fleet: session start index %d must not be negative", start)
	}
	if n <= 0 {
		return nil, fmt.Errorf("fleet: session count %d must be positive", n)
	}
	mint, err := m.Minter(design, frames, warmup, baseSeed)
	if err != nil {
		return nil, err
	}
	specs := make([]SessionSpec, n)
	for i := 0; i < n; i++ {
		specs[i] = mint(start + i)
	}
	return specs, nil
}

// Minter hoists SpecsRange's per-mix work — the weighted tier
// shuffle, app resolution, and the per-tier base config — and returns
// a pure per-global-index generator: mint(g) is byte-identical to
// SpecsRange's session g for the same arguments. The closure is safe
// for concurrent calls, which is what lets a Config.Source run mint a
// million-session population transiently inside its worker shards
// instead of materializing the spec slice.
func (m Mix) Minter(design pipeline.Design, frames, warmup int, baseSeed int64) (func(g int) SessionSpec, error) {
	if len(m.Tiers) == 0 {
		return nil, fmt.Errorf("fleet: mix %q has no tiers", m.Name)
	}
	var cycle []Tier
	for _, t := range m.Tiers {
		w := t.Weight
		if w <= 0 {
			w = 1
		}
		for i := 0; i < w; i++ {
			cycle = append(cycle, t)
		}
	}
	// Shuffle the weighted cycle so oversubscription tests don't drop
	// whole tiers just because they expanded last.
	rng := randpool.Get(baseSeed*2654435761 + 97)
	rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
	randpool.Put(rng)

	// One resolved base config per cycle entry; mint copies it and
	// fills the per-session fields.
	bases := make([]pipeline.Config, len(cycle))
	for i, t := range cycle {
		app, ok := scene.AppByName(t.App)
		if !ok {
			return nil, fmt.Errorf("fleet: mix %q tier %q: unknown app %q", m.Name, t.Name, t.App)
		}
		cfg := pipeline.DefaultConfig(design, app)
		cfg.GPU = cfg.GPU.WithFrequency(t.FreqMHz)
		cfg.Network = t.Network
		cfg.Profile = t.Profile
		if frames > 0 {
			cfg.Frames = frames
		}
		if warmup >= 0 {
			cfg.Warmup = warmup
		}
		bases[i] = cfg
	}
	return func(g int) SessionSpec {
		t := cycle[g%len(cycle)]
		cfg := bases[g%len(cycle)]
		cfg.Seed = baseSeed + int64(g)*1009 + 7
		return SessionSpec{
			Name:   sessionName(t.Name, g),
			Region: t.Region,
			Config: cfg,
		}
	}, nil
}

// sessionName is fmt.Sprintf("%s-%03d", tier, g) for g >= 0 in one
// allocation instead of three: a timeline re-mints every carried
// session each phase.
func sessionName(tier string, g int) string {
	var b [32]byte
	s := append(b[:0], tier...)
	s = append(s, '-')
	for d := 100; d > 1 && g < d; d /= 10 {
		s = append(s, '0')
	}
	return string(strconv.AppendInt(s, int64(g), 10))
}
