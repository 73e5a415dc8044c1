package main

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"qvr/internal/cliout"
	"qvr/internal/scenario"
)

// cliGoldens pins the command's report for every built-in scenario:
// the SHA-256 of the table, JSON and CSV output, in that order, at
// -frames 2 -warmup 1. A grid built-in (one with [cluster] sections)
// carries the edge-grid report: cluster header, migration and SLO
// columns, per-cluster utilization, placement moves, the autoscale
// block and one CSV row per (phase, cluster). Reports are
// deterministic, so the digests hold for every -workers value.
var cliGoldens = map[string][3]string{
	"capacity-probe": {
		"8c4c1fce3374bb5a06cbe7a989b279e20a619e7dd2954d46de567f26b6ac6446",
		"7329b984b755fb7f72899926948ef3c2eaf0b0f3a2643eb0be9a9e5b0d607354",
		"92f86231517436958a719d0a9e636572b9a2ccdc196ef810401df82544ecabd1",
	},
	"churn": {
		"e0ebfa03648e06d3e87143f3e52105d813e7b1d4b8245c1b8979b6649e657886",
		"3de5d678d068d9a00d06f3ded9a420c906abc21897ff9cfc839a43e860af334d",
		"98f84930daf491f395336ae28c94b1616fc9e955d96bd3bccf7cf697e1994662",
	},
	"cluster-outage-failover": {
		"bbeae52f039fb73fb1e3e495b1ef57cfb26c87a1b0546bdee9322bcfbde66880",
		"012caf84718505fe384f7fb5c0e41701ad66d604b2f0682c0033213814f237a8",
		"f12c65d2f2eb7fc6b95771c38e221ee7d4ce8d25baff0d0a08d863160a23b228",
	},
	"diurnal": {
		"0f359cbc2b0ee93b1f5097a69f21918a2c75bef231f2712360c3a3c2756acd19",
		"49d8906974bccebd56a2b73186b87c7ec37f80698b999bcd4fe1d1c1d9c21dde",
		"5bb8771aec10b059fc6e3f9c084ec1660585d33083d444adaee03efbd16ee342",
	},
	"edge-autoscale-flashcrowd": {
		"ab32cb5c91ca31fae178eb9a726bdbce57aa275c1ff714b9a8a989de1494add7",
		"e618aba7f17ef338f531a760f7d43980183ee099e77a9186f3f54e440b482228",
		"5c48f4d6bdb6080f9bdcf0079a898fe89873ea522409fadbbe73d3d14d1cebae",
	},
	"edge-imbalance": {
		"46c24ad00560049ab053e10e3eb7450856560f5ef2451b51bfa13df415841215",
		"8782ec243d31458c0f8e8b8c9534978e0b5f6c4bc539243dde8606f3b7400b06",
		"8a5ea1b3d481c51332c2dd1eb69e49dee11fa234d90a6df587df2ed7699e4252",
	},
	"edge-regional-outage": {
		"3047b5f548d12896b0de18ae6e3e0de2e0fc15614d708dd44e9a3b113465d6a4",
		"47fe340fd5affabf4dcd923babd680c67ea70fd53e3e98c395e5c1329eba2a48",
		"e94048e7b8cf75f55986af766a8f4b2fd54ceb27f105d71b8e9f7d7b1ffc7fb4",
	},
	"flash-crowd": {
		"e43779f7117e4ed50607c255c5caf9a3de5d089d773615198d5b9ba1d21df0f2",
		"37d901d1cd46c3c60b8e401aa8afca95e6f0f7bd7f95861e1e171097b8fb1297",
		"4e8389804b7e359c45cf9730b1d48ec526d8ffde0ad1c07169dc35b0faa6a537",
	},
	"giga-steady": {
		"bb8af48fdd6ddb02d5e4edeaab0956a7c0b7d74dfe80ea5391e27ea90c97a378",
		"7487e0dff001eacbf61b9689aac3d4766d0bdb9c85346469c353255d7a96dbe3",
		"5b01b98f125a68e68b65b9d6eab58aae14421fecb28335ddc89ac044442ea9f1",
	},
	"mega-steady": {
		"662e3c9e0bb9f428d44d156108d13cfc68527ca47502f47442d4b3929fbd619f",
		"1e4501dab0f1ff6c10dd5b9dbd8b5aa04eb32d11d56fbf18d4e11d5d8feca56e",
		"1ab4e848fe39eb3b26e10e319cc2c254b14b118461c5420b6478e2fd8038d449",
	},
	"net-brownout": {
		"09fa95aeae6be24e9247960abfe0b5d735006497b0b2e140a7e5b5ecd5028124",
		"6ab48d383f60ea7e1e78f895a6f982e27c281a1b54eca45b5c11751886d9ab96",
		"d13815f0a7f2a8e46ed9b020daa51996d200d9b3774a761a5a7aa8918a38155b",
	},
	"steady": {
		"14f41b829e74522633e8b364dcede134e3becefbe6f9f335bc142331de9a4dad",
		"df4255f51d4d040ef614d89baa3693e3aeddb4d82c04debca3da26b16fc145de",
		"8050f823b88eeded8dbb0d74063bb28446ae7b4240dd34a88290371da9cf7137",
	},
}

// TestCLIGoldenDigests renders every built-in in every format at two
// pool sizes and compares each report's digest with its golden.
func TestCLIGoldenDigests(t *testing.T) {
	names := scenario.BuiltinNames()
	if len(names) != len(cliGoldens) {
		t.Errorf("%d built-ins but %d CLI goldens", len(names), len(cliGoldens))
	}
	for _, name := range names {
		want, ok := cliGoldens[name]
		if !ok {
			t.Errorf("built-in %q has no CLI golden", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			if name == "giga-steady" && (testing.Short() || raceEnabled) {
				t.Skip("a million sessions per phase; skipped under -short and -race")
			}
			for _, workers := range []int{1, 4} {
				out := renderBuiltin(t, name, workers)
				for i, form := range cliout.Formats {
					sum := sha256.Sum256(out[form])
					if got := hex.EncodeToString(sum[:]); got != want[i] {
						t.Errorf("workers %d, %s: digest %s, want %s\n%s",
							workers, form, got, want[i], out[form])
					}
				}
			}
		})
	}
}
