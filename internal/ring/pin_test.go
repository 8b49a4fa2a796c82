package ring

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/system"
)

// pinnedAutomata holds, per ring builder and size, a SHA-256 over the
// automaton's name, state space, sorted transitions and initial states
// (see digestSystem). The digests were recorded from the hand-written
// closure definitions the GCL templates replaced, so every template is
// pinned transition for transition to the system it stands for.
var pinnedAutomata = map[string]string{
	"AggressiveThree/N=2":       "cf4ddbd8f6892bb99319bf155d91c8f0",
	"AggressiveThree/N=3":       "ff8043472546e1b4d3ada18afaabf5de",
	"AggressiveThree/N=4":       "595ae8f55327ceb489494edfc4279a6a",
	"AggressiveThree/N=5":       "f1dcc048905f063fb28a9cd5c2a22fdd",
	"BTR/N=2":                   "e7521517d923ac1c3ef63115ccef6a4e",
	"BTR/N=3":                   "b9ca3883a855a2bf3a1f8583aa33f6f7",
	"BTR/N=4":                   "1baabe0e7d97aafb9b4d3d30f6abd84e",
	"BTR/N=5":                   "5cd5d3abac8718856595783dc2aa78ae",
	"BTR3/N=2":                  "4a80171f646e2529ea7274d1a0597ada",
	"BTR3/N=3":                  "671d5e8270d7ca325d1d03dee9a0511f",
	"BTR3/N=4":                  "8b8e219c25eca98555d695c757458ad9",
	"BTR3/N=5":                  "d529b90557ceef70eed350af848ade93",
	"BTR4/N=2":                  "bf44023c691230df27eb7596be770b91",
	"BTR4/N=3":                  "aa3ff3477821b1375e001d013895b0e7",
	"BTR4/N=4":                  "e4444558e8fdd43961dcf999bf17bcdd",
	"BTR4/N=5":                  "7c330f3ae9be5154f8427e55e005aeee",
	"C1/N=2":                    "4f39c594463707fa508261e53833ad84",
	"C1/N=3":                    "3a016d69cd62cebab626725ab5425d15",
	"C1/N=4":                    "2139691673a150a5211bc36f582f4e7e",
	"C1/N=5":                    "21ec03de68f6b5cf996686b52fea1022",
	"C2/N=2":                    "770e0452521ba517ba10722f0de3303a",
	"C2/N=3":                    "0e61922e1567f17ac9b7b06523eb9463",
	"C2/N=4":                    "355b95907b214ab302dac2737ef0e643",
	"C2/N=5":                    "b2984df0b856921c215cff0c6d495da6",
	"C3/N=2":                    "740d947ae15c9db296c86b51ad8a13c7",
	"C3/N=3":                    "507a06012a661de210e89ef4fcb74776",
	"C3/N=4":                    "d0f9ef00f4832ff018f2454782f33b1d",
	"C3/N=5":                    "3792651dee12e3bfeaafa5faea6cd28c",
	"ComposedC2/N=2":            "521155bb63a0f86bd5a980ba37d28391",
	"ComposedC2/N=3":            "4a61d3532e3e568f3d03a7b640f2e1de",
	"ComposedC2/N=4":            "15aabcb048bf2f82fb1b09911d6ed719",
	"ComposedC2/N=5":            "0d25a9e706aac2e3425eb5f04c4b950d",
	"Dijkstra3/N=2":             "7a12f9c3099df30be4f8822744bd295f",
	"Dijkstra3/N=3":             "ec6c596e4186ae01cd60832af4ecd9fc",
	"Dijkstra3/N=4":             "1ce6e2fb97cb1358a63e57681c308975",
	"Dijkstra3/N=5":             "c15148c532301ca1a2d5c923f0e90b18",
	"Dijkstra3Synchronous/N=2":  "93bf84f5ff34efcff209eb565531535d",
	"Dijkstra3Synchronous/N=3":  "fd8d2af800a3b23a88c993ca94cf262a",
	"Dijkstra3Synchronous/N=4":  "38bb0735303ddce99dace34c356990f1",
	"Dijkstra3Synchronous/N=5":  "2e888bc2fbbc7ed9c52099a331406514",
	"Dijkstra4/N=2":             "e6d87964cf772759bfe82c5659caa9d6",
	"Dijkstra4/N=3":             "d8575684ad52cd6214e81f739dd9c97a",
	"Dijkstra4/N=4":             "a7311240033828eef3920bd78db7242f",
	"Dijkstra4/N=5":             "fee25dee83a4a409fece1ae15aed6533",
	"KState/N=2,K=2":            "b385bce088422218db96ac1110517812",
	"KState/N=2,K=3":            "fa589237a0bab6f49f43af310ac4015f",
	"KState/N=2,K=4":            "dd3d8fda5984c88f4f74134a4176cd54",
	"KState/N=3,K=2":            "8b2c5566ce3b50c2655614dec0ae58c2",
	"KState/N=3,K=3":            "aeafb62fbf98cda565a77286b943be9b",
	"KState/N=3,K=4":            "d8b073b06724c1448b29432ba94929b1",
	"KState/N=4,K=2":            "e17ba107b417fa55955c12000c235065",
	"KState/N=4,K=3":            "68799b004b3b833cc2f18d18f80a7ee1",
	"KState/N=4,K=4":            "e34c5cb9a8b8490b7e118d245a0efefb",
	"KState/N=5,K=2":            "4507438905f111fd714383eedab1ba6d",
	"KState/N=5,K=3":            "8dfd00ce1de9d71095d74e4bab16bcab",
	"KState/N=5,K=4":            "aad932788b105ac7d64d516689a4a3e7",
	"KStateSynchronous/N=2,K=2": "1193b4ffb25da96c1e4ccf5844cf2dcb",
	"KStateSynchronous/N=2,K=3": "87c6373531d45a9e1cccd4f2e07449d1",
	"KStateSynchronous/N=2,K=4": "ba32c696b7fa8f9bb27da313a9b21065",
	"KStateSynchronous/N=3,K=2": "c9804dea2f7ad571809fe19e7c16fe25",
	"KStateSynchronous/N=3,K=3": "d2f8650822d10229e48e20e2d13b2f65",
	"KStateSynchronous/N=3,K=4": "c0df476ee95e06172e702c5277d578bb",
	"KStateSynchronous/N=4,K=2": "f597f8fb151d9d4ada537f4bf1ee7e8e",
	"KStateSynchronous/N=4,K=3": "e7eab8dc7a216a508e0a04d6f86c7f94",
	"KStateSynchronous/N=4,K=4": "9bc2f8fba0957afebf5c17e4f8ca0879",
	"KStateSynchronous/N=5,K=2": "44edd31e012e17f01b1e292805b94c1f",
	"KStateSynchronous/N=5,K=3": "1c043451c31be93ccf9087edded30c72",
	"KStateSynchronous/N=5,K=4": "0d8a39d817bff61f60717a8bd04e50be",
	"Lemma9System/N=2":          "ff58d9dd313037931e6f497c4b35a910",
	"Lemma9System/N=3":          "230cae1721b650192d10bdb321304cd3",
	"Lemma9System/N=4":          "da2fe46633750910c44705ce864e7acf",
	"Lemma9System/N=5":          "3b7430f515c1dbc7c3042a131ae358fa",
	"NewThree/N=2":              "b44aa40bc431374012a7a7fe16f10484",
	"NewThree/N=3":              "fcbb737960e7d9df0d52c45e3f987e49",
	"NewThree/N=4":              "db38fcecb78764cbea5e9c4cdaf763d5",
	"NewThree/N=5":              "6c94e2181ff0052ea0ff034c286fc06c",
	"UTR/N=2":                   "112ee33bf1de98f9c845dcb82cde41ae",
	"UTR/N=3":                   "4a7f55d24ae5c213d462fcc0bfc550b2",
	"UTR/N=4":                   "1edb1d818b05cd15e4a11c9affa937f8",
	"UTR/N=5":                   "99d179eb686d6d951abad74d6fa3d2c9",
	"UTRWrapped/N=2":            "05b58eed07938cc5790b532ef55b6e87",
	"UTRWrapped/N=3":            "c7f04cebe9a7cacbd4238a2833404277",
	"UTRWrapped/N=4":            "5fa8accf0c64255824186079f402f9c7",
	"UTRWrapped/N=5":            "235d13bb8b38546fbdf03b00cee9a500",
	"W1/N=2":                    "d3dcc111d51bb779e6b95f5577de3a07",
	"W1/N=3":                    "96cac380f1efc486412ce3a4e2e34059",
	"W1/N=4":                    "d252acd73f3eb141db8b37276dafe144",
	"W1/N=5":                    "fc101e6486db5bb826449df21ea2a8a5",
	"W1DoublePrime/N=2":         "c74f5b7a270129896eb94a10693c35fe",
	"W1DoublePrime/N=3":         "70b87611408c431ed49bd156dc7b81b4",
	"W1DoublePrime/N=4":         "580dc38eeee952cc2df07218670e0998",
	"W1DoublePrime/N=5":         "8a7600f278d8e4593d358af182b5e435",
	"W1Prime4/N=2":              "85dd59f9fec43b276ef8f942f81fd0b9",
	"W1Prime4/N=3":              "71355c1b1ecfd73ddd0310dcf770e559",
	"W1Prime4/N=4":              "7e0031e697fa03092dfb1dd9535b8117",
	"W1Prime4/N=5":              "d053aef099e0476e8a4711e9cac68417",
	"W1PrimeGlobal/N=2":         "0cb09b37dd5550dd7ecf69184f3be362",
	"W1PrimeGlobal/N=3":         "4fd995f56436a8af69e9944afe18d617",
	"W1PrimeGlobal/N=4":         "468aff26312f2a08b7a7a47c49d60a6d",
	"W1PrimeGlobal/N=5":         "2fa2584966001ca05e79fb082042cc24",
	"W2/N=2":                    "9fcd940fcca14e4e1a82a54ace215ad7",
	"W2/N=3":                    "251dc92ae3523bcdc87ba3a9591ee860",
	"W2/N=4":                    "f5547f2f4b7cea098f8ba4703da0a38d",
	"W2/N=5":                    "c595b3a8b841764260b3c3957656a8b1",
	"W2Prime3/N=2":              "040f40bb83290d89e858311f0d8e5728",
	"W2Prime3/N=3":              "4efa6c39c180f373f3343643b5a79cd9",
	"W2Prime3/N=4":              "86d3765b29b9edbd4ac7fb972783d658",
	"W2Prime3/N=5":              "a0830aba7170cd72ddd4fd1b4a12c06d",
	"W2Prime4/N=2":              "6f3d5670ab1c04fdadb7d29ac3edb0de",
	"W2Prime4/N=3":              "0efaf5f7d6c72f0a7f603e1cf5ffcb8c",
	"W2Prime4/N=4":              "3ed25ed8e6e7086c1d0349a4496d30a6",
	"W2Prime4/N=5":              "1c8e9148ee8e22e3376a0279398729bf",
	"WU1/N=2":                   "bb1c833cee2d997e62950a1a61536eb5",
	"WU1/N=3":                   "ef5056dac9f1043f9fdeb818d939d806",
	"WU1/N=4":                   "89b5df0cca262e7c07474a8651839e10",
	"WU1/N=5":                   "9a4d04f768a5a4bc487c09437302c863",
	"WU2/N=2":                   "6c3c3fd14fb3c1712b5cf60a9e5ff7fa",
	"WU2/N=3":                   "219034bfbf99e8ec50af646cd8dd60f2",
	"WU2/N=4":                   "2db9a48eec6b85a608a6d5e9ea168d0d",
	"WU2/N=5":                   "a5e67bd4e728ca3ea3f86b8a668a4f5d",
	"Wrapped/N=2":               "7f218c3f3956a7c851dd5de2d2d4b765",
	"Wrapped/N=3":               "2f1ab1ddbcb7c9b0cb83c64c41ea95fe",
	"Wrapped/N=4":               "46a951beac39e78fd083c4ebe7b13f9e",
	"Wrapped/N=5":               "7d60cfd4138f98b8a5fcb6c188014f45",
	"WrappedPlain/N=2":          "17601ec9f5060cd9a459a9e299998754",
	"WrappedPlain/N=3":          "2c33e90010519e5c161e1d330a82184d",
	"WrappedPlain/N=4":          "14b3faa03620f93ffa8925fe5f57da23",
	"WrappedPlain/N=5":          "6602c16cb753b8339424a7444def477a",
}

// pinnedLabeled pins Lemma9Labeled: its base automaton, and per state the
// labeled edges in action order and the enabled actions.
var pinnedLabeled = map[string]string{
	"Lemma9Labeled/N=2": "6533bf23d023d3cf7f77d97e0d9f4cd0",
	"Lemma9Labeled/N=3": "895c60e419702328f6e5b3c28b85f235",
	"Lemma9Labeled/N=4": "3b29773e9016cedd1f843630568bf515",
	"Lemma9Labeled/N=5": "c0b31c6f42daf0678f887baf1f6d7c65",
}

// pinnedGCLText pins the generated GCL texts byte for byte; the checkd
// benchmark's workloads and fingerprints are built from them.
var pinnedGCLText = map[string]string{
	"AggressiveThreeGCL/N=2": "0eff19aacfecadf679552e54410b6841",
	"AggressiveThreeGCL/N=3": "443ced7048ece16f0da04eef7fb0b059",
	"AggressiveThreeGCL/N=4": "3cc65d875cfef13ccd9342ccc523e717",
	"AggressiveThreeGCL/N=5": "62bad338a4981ce91ac299990bb94d3f",
	"AggressiveThreeGCL/N=6": "8ef3f61028931ebc2ea919e44551e132",
	"AggressiveThreeGCL/N=7": "31e2919be24780a4ff0de869692f7fbf",
	"AggressiveThreeGCL/N=8": "94c7a5e4561e3fe4d60776e4adb1e9f1",
	"Dijkstra3GCL/N=2":       "0d43bdbd0a4bec0465af2025ad7d2ccc",
	"Dijkstra3GCL/N=3":       "569df79a0d80d2c6784b1df5c9de844a",
	"Dijkstra3GCL/N=4":       "75476ca953293213f68fbef01a7482c1",
	"Dijkstra3GCL/N=5":       "c647207fa2ed6345b8fc06ce8aad9082",
	"Dijkstra3GCL/N=6":       "86d1eeb20e80ecaa5430b386daeace5e",
	"Dijkstra3GCL/N=7":       "09b7abf8ff2c0600492dbae90625bfbb",
	"Dijkstra3GCL/N=8":       "67939f06a816157b8400f5bd67af64df",
	"KStateGCL/N=2,K=2":      "3a57b5ffab41a8dedaaa1cdf15f9a06f",
	"KStateGCL/N=2,K=3":      "0422624a8c9929d5f3847dadc48f95a1",
	"KStateGCL/N=2,K=4":      "9d380e76768317e31941e2b70b2a7b87",
	"KStateGCL/N=3,K=2":      "b2f82135a433ef31b78167d50329135e",
	"KStateGCL/N=3,K=3":      "209b5788fa4f8ca84b8fb5afcb75b221",
	"KStateGCL/N=3,K=4":      "b58e195fc48369b8cc808d595644249d",
	"KStateGCL/N=4,K=2":      "29e83d75fc35e76983f434884f64db55",
	"KStateGCL/N=4,K=3":      "5715167da66a3855a99d33fa149872ff",
	"KStateGCL/N=4,K=4":      "dd202c5cf2435a3867d21b9f1f4f30c1",
	"KStateGCL/N=5,K=2":      "67c08919e170e5c3feaff6f226a64f53",
	"KStateGCL/N=5,K=3":      "9209aa5cea035e6e607f8472fcfd8657",
	"KStateGCL/N=5,K=4":      "412955aeb2ff56fd2cb0f1f8c3bbd166",
	"KStateGCL/N=6,K=2":      "643942543693b4f87762a7104c9c8bf3",
	"KStateGCL/N=6,K=3":      "92659c120e942a3b99e4a5aeb8dcf458",
	"KStateGCL/N=6,K=4":      "f2de0e340cc47430f0893fa47c7aa6c9",
	"KStateGCL/N=7,K=2":      "958bee96dd758b6995c04a4840696fd7",
	"KStateGCL/N=7,K=3":      "720e11945551b1754f6d1f9ee9fe9eec",
	"KStateGCL/N=7,K=4":      "87bdb928d8e022e9338a33a17f11bc6c",
	"KStateGCL/N=8,K=2":      "819b3636798545f651e8ed5c67db978d",
	"KStateGCL/N=8,K=3":      "e3fd544072871279bea9c904457ae887",
	"KStateGCL/N=8,K=4":      "cff321658ad7000891512d4b36f8a980",
}

func digest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return fmt.Sprintf("%x", sum[:16])
}

func writeSystem(b *strings.Builder, sys *system.System) {
	fmt.Fprintf(b, "%s\n|Σ|=%d\n", sys.Name(), sys.NumStates())
	if sp := sys.Space(); sp != nil {
		for i := 0; i < sp.NumVars(); i++ {
			v := sp.Var(i)
			fmt.Fprintf(b, "var %s:%d\n", v.Name, v.Card)
		}
		fmt.Fprintf(b, "last=%s\n", sp.StateString(sp.Size()-1))
	}
	for s := 0; s < sys.NumStates(); s++ {
		fmt.Fprintf(b, "%d:%v\n", s, sys.Succ(s))
	}
	fmt.Fprintf(b, "init=%v\n", sys.InitStates())
}

func digestSystem(sys *system.System) string {
	var b strings.Builder
	writeSystem(&b, sys)
	return digest(b.String())
}

func digestLabeled(ls *system.LabeledSystem) string {
	var b strings.Builder
	writeSystem(&b, ls.Base())
	fmt.Fprintf(&b, "actions=%d\n", ls.NumActions())
	for s := 0; s < ls.Base().NumStates(); s++ {
		fmt.Fprintf(&b, "%d:", s)
		for _, e := range ls.Edges(s) {
			fmt.Fprintf(&b, " %d>%d", e.Action, e.To)
		}
		b.WriteString(" enabled")
		for a := 0; a < ls.NumActions(); a++ {
			if ls.Enabled(s, a) {
				fmt.Fprintf(&b, " %d", a)
			}
		}
		b.WriteString("\n")
	}
	return digest(b.String())
}

// ringAutomata builds every ring automaton the pins cover.
func ringAutomata() map[string]*system.System {
	out := make(map[string]*system.System)
	for n := 2; n <= 5; n++ {
		b, f, t, u := NewBTR(n), NewFourState(n), NewThreeState(n), NewUTR(n)
		for name, build := range map[string]func() *system.System{
			"BTR": b.System, "W1": b.W1, "W2": b.W2, "Wrapped": b.Wrapped, "WrappedPlain": b.WrappedPlain,
			"BTR4": f.BTR4, "C1": f.C1, "Dijkstra4": f.Dijkstra4, "W1Prime4": f.W1Prime, "W2Prime4": f.W2Prime,
			"BTR3": t.BTR3, "C2": t.C2, "C3": t.C3, "W1DoublePrime": t.W1DoublePrime,
			"W1PrimeGlobal": t.W1PrimeGlobal, "W2Prime3": t.W2Prime, "Dijkstra3": t.Dijkstra3,
			"AggressiveThree": t.AggressiveThree, "Lemma9System": t.Lemma9System,
			"ComposedC2": t.ComposedC2, "NewThree": t.NewThree, "Dijkstra3Synchronous": t.Dijkstra3Synchronous,
			"UTR": u.System, "WU1": u.WU1, "WU2": u.WU2, "UTRWrapped": u.Wrapped,
		} {
			out[fmt.Sprintf("%s/N=%d", name, n)] = build()
		}
		for k := 2; k <= 4; k++ {
			ks := NewKState(n, k)
			out[fmt.Sprintf("KState/N=%d,K=%d", n, k)] = ks.System()
			out[fmt.Sprintf("KStateSynchronous/N=%d,K=%d", n, k)] = ks.KStateSynchronous()
		}
	}
	return out
}

func gclTexts() map[string]string {
	out := make(map[string]string)
	for n := 2; n <= 8; n++ {
		out[fmt.Sprintf("Dijkstra3GCL/N=%d", n)] = Dijkstra3GCL(n)
		out[fmt.Sprintf("AggressiveThreeGCL/N=%d", n)] = AggressiveThreeGCL(n)
		for k := 2; k <= 4; k++ {
			out[fmt.Sprintf("KStateGCL/N=%d,K=%d", n, k)] = KStateGCL(n, k)
		}
	}
	return out
}

// checkPins compares got against want and, on any difference, prints
// the whole of got as a map literal.
func checkPins(t *testing.T, what string, want, got map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bad := len(want) != len(got)
	for _, k := range keys {
		if want[k] != got[k] {
			t.Errorf("%s %s: digest %s, pinned %q", what, k, got[k], want[k])
			bad = true
		}
	}
	if bad {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "\t%q: %q,\n", k, got[k])
		}
		t.Logf("%s digests now:\n%s", what, b.String())
	}
}

func TestRingAutomataPinned(t *testing.T) {
	got := make(map[string]string)
	for k, sys := range ringAutomata() {
		got[k] = digestSystem(sys)
	}
	checkPins(t, "automaton", pinnedAutomata, got)
}

func TestLemma9LabeledPinned(t *testing.T) {
	got := make(map[string]string)
	for n := 2; n <= 5; n++ {
		got[fmt.Sprintf("Lemma9Labeled/N=%d", n)] = digestLabeled(NewThreeState(n).Lemma9Labeled())
	}
	checkPins(t, "labeled automaton", pinnedLabeled, got)
}

func TestGCLTextPinned(t *testing.T) {
	got := make(map[string]string)
	for k, src := range gclTexts() {
		got[k] = digest(src)
	}
	checkPins(t, "GCL text", pinnedGCLText, got)
}
