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
	// One resolved base per tier; mint copies its config and fills
	// the per-session fields.
	type tierBase struct {
		name, region string
		cfg          pipeline.Config
	}
	bases := make([]tierBase, len(m.Tiers))
	n := 0
	for i, t := range m.Tiers {
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
		bases[i] = tierBase{name: t.Name, region: t.Region, cfg: cfg}
		n += max(t.Weight, 1)
	}
	// The weighted cycle holds one tier index per weight unit.
	// Shuffle it so oversubscription tests don't drop whole tiers
	// just because they expanded last.
	cycle := make([]int, 0, n)
	for i, t := range m.Tiers {
		for range max(t.Weight, 1) {
			cycle = append(cycle, i)
		}
	}
	rng := randpool.Get(baseSeed*2654435761 + 97)
	rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
	randpool.Put(rng)

	return func(g int) SessionSpec {
		b := &bases[cycle[g%len(cycle)]]
		cfg := b.cfg
		cfg.Seed = baseSeed + int64(g)*1009 + 7
		return SessionSpec{
			ID:     SessionID{name: b.name, seq: g + 1},
			Region: b.region,
			Config: cfg,
		}
	}, nil
}

// SessionID identifies one session. It is a comparable value that
// costs nothing to build: a minted session's ID is its tier and global
// index, and String renders the "<tier>-%03d" name only where a name
// is printed (reports, traces, migration lines). A hand-built spec's
// ID (NamedID) is its whole name.
//
// Minted and hand-built IDs never share one population: a hand-built
// "x-005" and the minted session 5 of tier "x" render the same name
// but compare unequal, so anything keyed by ID — the edge grid's
// sticky placement map, for one — would treat them as two sessions.
// Build a run's specs one way or the other.
type SessionID struct {
	// name is a minted ID's tier, or a hand-built ID's whole name.
	name string
	// seq is a minted ID's global index plus one; 0 marks a hand-built
	// name, so the zero SessionID is the empty name.
	seq int
}

// NamedID is the ID of a hand-built spec: the given name, verbatim.
func NamedID(name string) SessionID { return SessionID{name: name} }

// String renders the ID's session name: a hand-built ID's name, or
// fmt.Sprintf("%s-%03d", tier, g) for the minted session g of a tier,
// in one allocation instead of three.
func (id SessionID) String() string {
	if id.seq == 0 {
		return id.name
	}
	g := id.seq - 1
	var b [32]byte
	s := append(b[:0], id.name...)
	s = append(s, '-')
	for d := 100; d > 1 && g < d; d /= 10 {
		s = append(s, '0')
	}
	return string(strconv.AppendInt(s, int64(g), 10))
}
