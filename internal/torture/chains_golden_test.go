package torture

import (
	"fmt"
	"strings"
	"testing"
)

// The chain goldens pin what `-seed N -step K` names. A repro printed
// in an old CI log is only worth anything while the same coordinates
// still sample and run the same chain, so the sampled configuration
// line of every CI flag set, and the full outcome of the flag sets
// that replay bit-exactly under one worker, are recorded here and any
// change to the driver has to reproduce them without re-recording.

// goldenSeed and goldenSteps are the coordinates every golden covers.
const (
	goldenSeed  = 1
	goldenSteps = 8
)

// goldenFlagSets are the eight flag sets CI fuzzes; exact marks the
// ones whose one-worker chains are bit-deterministic.
var goldenFlagSets = []struct {
	name  string
	opts  Options
	exact bool
}{
	{"plain", Options{}, true},
	{"faults", Options{Faults: true}, true},
	{"heap24", Options{HeapPages: 24}, true},
	{"shards4", Options{Shards: 4}, true},
	{"mvcc", Options{MVCC: true}, false},
	{"mvcc-heap24", Options{MVCC: true, HeapPages: 24}, false},
	{"repl", Options{Repl: true}, false},
	{"slow", Options{Slow: true}, false},
}

// chainAt runs exactly one chain and returns its result with the
// sampled configuration line as -v prints it.
func chainAt(opts Options, step int) (chainResult, string) {
	line := ""
	opts.Step, opts.Steps, opts.Duration = step, 1, 0
	opts.Logf = func(format string, args ...any) {
		if s := fmt.Sprintf(format, args...); line == "" && strings.HasPrefix(s, fmt.Sprintf("chain %d (seed ", step)) {
			line = s
		}
	}
	m, err := modeFor(opts)
	if err != nil {
		panic(err)
	}
	res := runChain(m, opts, step)
	return res, line
}

// sampledGolden is what every flag set pins per step: the sampled
// chain line and the number of rounds the chain ran.
type sampledGolden struct {
	Line   string
	Rounds int
}

// exactGolden is what a bit-deterministic chain pins on top.
type exactGolden struct {
	Rounds, Txns, Damaged int
	Degraded              bool
	Fingerprint           uint64
}

func TestChainsSampleRecordedGoldens(t *testing.T) {
	for _, fs := range goldenFlagSets {
		fs := fs
		t.Run(fs.name, func(t *testing.T) {
			if testing.Short() && (fs.opts.Repl || fs.opts.Slow) {
				t.Skip("cluster chains run in real time")
			}
			t.Parallel()
			opts := fs.opts
			opts.Seed = goldenSeed
			for step := 0; step < goldenSteps; step++ {
				res, line := chainAt(opts, step)
				for _, v := range res.violations {
					t.Errorf("step %d: violation %s: %s", step, v.Kind, v.Detail)
				}
				key := fmt.Sprintf("%s/%d", fs.name, step)
				got := sampledGolden{Line: line, Rounds: res.rounds}
				if want := chainsSampledGolden[key]; got != want {
					t.Errorf("sampled chain moved\n\t%q: {Line: %q, Rounds: %d},", key, got.Line, got.Rounds)
				}
			}
		})
	}
}

func TestChainsReplayRecordedGoldens(t *testing.T) {
	for _, fs := range goldenFlagSets {
		if !fs.exact {
			continue
		}
		fs := fs
		t.Run(fs.name, func(t *testing.T) {
			t.Parallel()
			opts := fs.opts
			opts.Seed, opts.Workers = goldenSeed, 1
			for step := 0; step < goldenSteps; step++ {
				res, _ := chainAt(opts, step)
				for _, v := range res.violations {
					t.Errorf("step %d: violation %s: %s", step, v.Kind, v.Detail)
				}
				key := fmt.Sprintf("%s/%d", fs.name, step)
				got := exactGolden{res.rounds, res.txns, res.damaged, res.degraded, res.fingerprint}
				if want := chainsExactGolden[key]; got != want {
					t.Errorf("chain outcome moved\n\t%q: {%d, %d, %d, %t, %#x},", key,
						got.Rounds, got.Txns, got.Damaged, got.Degraded, got.Fingerprint)
				}
			}
		})
	}
}

// TestPlantedBugFirstViolationGolden pins the first violation of
// `-bug -workers 1 -seed 7`: which chain catches the planted bug, in
// which round, as what.
func TestPlantedBugFirstViolationGolden(t *testing.T) {
	opts := Options{Seed: 7, Bug: true, Workers: 1}
	for step := 0; step < 64; step++ {
		res, line := chainAt(opts, step)
		if len(res.violations) == 0 {
			continue
		}
		v := res.violations[0]
		got := bugGolden{Step: step, Round: v.Round, Kind: v.Kind, Line: line}
		if got != chainsBugGolden {
			t.Errorf("first planted-bug violation moved\n\t{Step: %d, Round: %d, Kind: %q, Line: %q}",
				got.Step, got.Round, got.Kind, got.Line)
		}
		return
	}
	t.Fatal("planted bug not caught in 64 one-worker chains")
}

type bugGolden struct {
	Step, Round int
	Kind, Line  string
}

// Recorded at the commit preceding the single fuzz driver (five chain
// runners, five samplers), by running the tests above against empty
// tables.
var chainsSampledGolden = map[string]sampledGolden{
	"plain/0":       {Line: "chain 0 (seed 6238072747940578789): UH+LS w=1 gc=1 bg=false churn=false rd=false rounds=5 ckpt=35", Rounds: 5},
	"plain/1":       {Line: "chain 1 (seed -7995527694508729151): LS w=2 gc=2 bg=false churn=true rd=false rounds=5 ckpt=133", Rounds: 5},
	"plain/2":       {Line: "chain 2 (seed -4689498862643123097): UH+LS w=1 gc=1 bg=false churn=false rd=false rounds=4 ckpt=86", Rounds: 4},
	"plain/3":       {Line: "chain 3 (seed -534904783426661026): LS w=1 gc=1 bg=false churn=false rd=false rounds=6 ckpt=72", Rounds: 6},
	"plain/4":       {Line: "chain 4 (seed 8196980753821780235): EP w=1 gc=1 bg=false churn=false rd=false rounds=3 ckpt=76", Rounds: 3},
	"plain/5":       {Line: "chain 5 (seed 8195237237126968761): LS w=4 gc=1 bg=false churn=false rd=false rounds=5 ckpt=100", Rounds: 5},
	"plain/6":       {Line: "chain 6 (seed -4373826470845021568): SP w=1 gc=1 bg=false churn=false rd=false rounds=3 ckpt=70", Rounds: 3},
	"plain/7":       {Line: "chain 7 (seed -2262517385565684571): SP w=3 gc=1 bg=true churn=false rd=false rounds=4 ckpt=29", Rounds: 4},
	"faults/0":      {Line: "chain 0 (seed 6238072747940578789): UH+CS+Diff w=1 gc=1 bg=false churn=false rd=false rounds=5 ckpt=35 flip=0.0001 stuck=0 rerr=0 torn=0.2 scrub=0", Rounds: 5},
	"faults/1":      {Line: "chain 1 (seed -7995527694508729151): E w=2 gc=2 bg=false churn=true rd=false rounds=5 ckpt=133 flip=0.0001 stuck=0 rerr=0.001 torn=0 scrub=15", Rounds: 5},
	"faults/2":      {Line: "chain 2 (seed -4689498862643123097): LS w=1 gc=1 bg=false churn=false rd=false rounds=4 ckpt=86 flip=0.0001 stuck=0.001 rerr=0.001 torn=0.2 scrub=0", Rounds: 4},
	"faults/3":      {Line: "chain 3 (seed -534904783426661026): LS w=1 gc=1 bg=false churn=false rd=false rounds=6 ckpt=72 flip=0.0001 stuck=0 rerr=0.001 torn=0.2 scrub=0", Rounds: 6},
	"faults/4":      {Line: "chain 4 (seed 8196980753821780235): LS+Diff w=1 gc=1 bg=false churn=false rd=false rounds=3 ckpt=76 flip=0.0001 stuck=0 rerr=0 torn=0 scrub=0", Rounds: 3},
	"faults/5":      {Line: "chain 5 (seed 8195237237126968761): CS+Diff w=4 gc=1 bg=false churn=false rd=false rounds=5 ckpt=100 flip=0.0001 stuck=0 rerr=0 torn=0.2 scrub=0", Rounds: 5},
	"faults/6":      {Line: "chain 6 (seed -4373826470845021568): UH+LS w=1 gc=1 bg=false churn=false rd=false rounds=3 ckpt=70 flip=0.0001 stuck=0 rerr=0 torn=0.2 scrub=0", Rounds: 3},
	"faults/7":      {Line: "chain 7 (seed -2262517385565684571): EP w=3 gc=1 bg=true churn=false rd=false rounds=4 ckpt=29 flip=0.0001 stuck=0 rerr=0.001 torn=0.2 scrub=15", Rounds: 4},
	"heap24/0":      {Line: "chain 0 (seed 6238072747940578789): UH+LS w=1 gc=1 bg=false churn=false rd=false rounds=5 ckpt=15", Rounds: 5},
	"heap24/1":      {Line: "chain 1 (seed -7995527694508729151): LS w=2 gc=2 bg=false churn=true rd=false rounds=5 ckpt=6", Rounds: 5},
	"heap24/2":      {Line: "chain 2 (seed -4689498862643123097): UH+LS w=1 gc=1 bg=false churn=false rd=false rounds=4 ckpt=7", Rounds: 4},
	"heap24/3":      {Line: "chain 3 (seed -534904783426661026): LS w=1 gc=1 bg=false churn=false rd=false rounds=6 ckpt=11", Rounds: 6},
	"heap24/4":      {Line: "chain 4 (seed 8196980753821780235): EP w=1 gc=1 bg=false churn=false rd=false rounds=3 ckpt=4", Rounds: 3},
	"heap24/5":      {Line: "chain 5 (seed 8195237237126968761): LS w=4 gc=1 bg=false churn=false rd=false rounds=5 ckpt=14", Rounds: 5},
	"heap24/6":      {Line: "chain 6 (seed -4373826470845021568): SP w=1 gc=1 bg=false churn=false rd=false rounds=3 ckpt=6", Rounds: 3},
	"heap24/7":      {Line: "chain 7 (seed -2262517385565684571): SP w=3 gc=1 bg=true churn=false rd=false rounds=4 ckpt=14", Rounds: 4},
	"shards4/0":     {Line: "chain 0 (seed 6238072747940578789): UH+LS shards=4 w=2 rounds=5 ckpt=35", Rounds: 5},
	"shards4/1":     {Line: "chain 1 (seed -7995527694508729151): LS shards=4 w=2 rounds=4 ckpt=117", Rounds: 4},
	"shards4/2":     {Line: "chain 2 (seed -4689498862643123097): UH+LS shards=4 w=1 rounds=5 ckpt=86", Rounds: 5},
	"shards4/3":     {Line: "chain 3 (seed -534904783426661026): LS shards=4 w=2 rounds=4 ckpt=72", Rounds: 4},
	"shards4/4":     {Line: "chain 4 (seed 8196980753821780235): EP shards=4 w=2 rounds=3 ckpt=76", Rounds: 3},
	"shards4/5":     {Line: "chain 5 (seed 8195237237126968761): LS shards=4 w=1 rounds=3 ckpt=71", Rounds: 3},
	"shards4/6":     {Line: "chain 6 (seed -4373826470845021568): SP shards=4 w=1 rounds=4 ckpt=70", Rounds: 4},
	"shards4/7":     {Line: "chain 7 (seed -2262517385565684571): SP shards=4 w=3 rounds=5 ckpt=112", Rounds: 5},
	"mvcc/0":        {Line: "chain 0 (seed 6238072747940578789): MVCC/UH+LS w=4 gc=4 bg=false churn=true rd=false rounds=5 ckpt=61", Rounds: 5},
	"mvcc/1":        {Line: "chain 1 (seed -7995527694508729151): MVCC/LS w=3 gc=1 bg=true churn=false rd=true rounds=5 ckpt=73", Rounds: 5},
	"mvcc/2":        {Line: "chain 2 (seed -4689498862643123097): MVCC/UH+LS w=4 gc=4 bg=false churn=true rd=true rounds=4 ckpt=120", Rounds: 4},
	"mvcc/3":        {Line: "chain 3 (seed -534904783426661026): MVCC/LS w=2 gc=1 bg=false churn=false rd=true rounds=6 ckpt=58", Rounds: 6},
	"mvcc/4":        {Line: "chain 4 (seed 8196980753821780235): MVCC/EP w=3 gc=2 bg=true churn=true rd=true rounds=3 ckpt=48", Rounds: 3},
	"mvcc/5":        {Line: "chain 5 (seed 8195237237126968761): MVCC/LS w=4 gc=4 bg=false churn=false rd=false rounds=5 ckpt=53", Rounds: 5},
	"mvcc/6":        {Line: "chain 6 (seed -4373826470845021568): MVCC/SP w=5 gc=2 bg=true churn=true rd=true rounds=3 ckpt=121", Rounds: 3},
	"mvcc/7":        {Line: "chain 7 (seed -2262517385565684571): MVCC/SP w=3 gc=2 bg=false churn=true rd=false rounds=4 ckpt=49", Rounds: 4},
	"mvcc-heap24/0": {Line: "chain 0 (seed 6238072747940578789): MVCC/UH+LS w=4 gc=4 bg=false churn=true rd=false rounds=5 ckpt=14", Rounds: 5},
	"mvcc-heap24/1": {Line: "chain 1 (seed -7995527694508729151): MVCC/LS w=3 gc=1 bg=true churn=false rd=true rounds=5 ckpt=5", Rounds: 5},
	"mvcc-heap24/2": {Line: "chain 2 (seed -4689498862643123097): MVCC/UH+LS w=4 gc=4 bg=false churn=true rd=true rounds=4 ckpt=12", Rounds: 4},
	"mvcc-heap24/3": {Line: "chain 3 (seed -534904783426661026): MVCC/LS w=2 gc=1 bg=false churn=false rd=true rounds=6 ckpt=10", Rounds: 6},
	"mvcc-heap24/4": {Line: "chain 4 (seed 8196980753821780235): MVCC/EP w=3 gc=2 bg=true churn=true rd=true rounds=3 ckpt=9", Rounds: 3},
	"mvcc-heap24/5": {Line: "chain 5 (seed 8195237237126968761): MVCC/LS w=4 gc=4 bg=false churn=false rd=false rounds=5 ckpt=8", Rounds: 5},
	"mvcc-heap24/6": {Line: "chain 6 (seed -4373826470845021568): MVCC/SP w=5 gc=2 bg=true churn=true rd=true rounds=3 ckpt=10", Rounds: 3},
	"mvcc-heap24/7": {Line: "chain 7 (seed -2262517385565684571): MVCC/SP w=3 gc=2 bg=false churn=true rd=false rounds=4 ckpt=9", Rounds: 4},
	"repl/0":        {Line: "chain 0 (seed 6238072747940578789): repl w=2 eras=2 ops=29 drop<=0.29 ckpt=13", Rounds: 2},
	"repl/1":        {Line: "chain 1 (seed -7995527694508729151): repl w=3 eras=2 ops=28 drop<=0.22 ckpt=20", Rounds: 2},
	"repl/2":        {Line: "chain 2 (seed -4689498862643123097): repl w=2 eras=3 ops=25 drop<=0.25 ckpt=17", Rounds: 3},
	"repl/3":        {Line: "chain 3 (seed -534904783426661026): repl w=2 eras=3 ops=19 drop<=0.33 ckpt=17", Rounds: 3},
	"repl/4":        {Line: "chain 4 (seed 8196980753821780235): repl w=2 eras=2 ops=28 drop<=0.30 ckpt=14", Rounds: 2},
	"repl/5":        {Line: "chain 5 (seed 8195237237126968761): repl w=3 eras=2 ops=29 drop<=0.29 ckpt=17", Rounds: 2},
	"repl/6":        {Line: "chain 6 (seed -4373826470845021568): repl w=2 eras=2 ops=22 drop<=0.39 ckpt=16", Rounds: 2},
	"repl/7":        {Line: "chain 7 (seed -2262517385565684571): repl w=2 eras=3 ops=24 drop<=0.15 ckpt=7", Rounds: 3},
	"slow/0":        {Line: "chain 0 (seed 6238072747940578789): slow w=2 ops=30 ackBudget=6ms nv=0.0018921507689919279 dev=0.00741443893832812 fsync=0.00046928002646907463 stall=0.18817996843904344/5ms ckpt=19", Rounds: 1},
	"slow/1":        {Line: "chain 1 (seed -7995527694508729151): slow w=3 ops=30 ackBudget=3ms nv=0.0008009789379100855 dev=0.0029797248990422304 fsync=0.006174985243235203 stall=0.07585620002367677/8ms ckpt=8", Rounds: 1},
	"slow/2":        {Line: "chain 2 (seed -4689498862643123097): slow w=2 ops=23 ackBudget=3ms nv=0.0011070533928768847 dev=0.00194872699811214 fsync=0.0028909867937392223 stall=0.1327872063265842/7ms ckpt=10", Rounds: 1},
	"slow/3":        {Line: "chain 3 (seed -534904783426661026): slow w=2 ops=36 ackBudget=7ms nv=0.0034438723489739367 dev=0.0018372479570683293 fsync=0.028570666946528652 stall=0.15019294483327722/4ms ckpt=14", Rounds: 1},
	"slow/4":        {Line: "chain 4 (seed 8196980753821780235): slow w=2 ops=24 ackBudget=7ms nv=0.0028057594978256766 dev=0.00968771160110791 fsync=0.03367023318960626 stall=0.17511619584062493/9ms ckpt=25", Rounds: 1},
	"slow/5":        {Line: "chain 5 (seed 8195237237126968761): slow w=3 ops=35 ackBudget=3ms nv=0.0017035817060487221 dev=0.005072242343923124 fsync=0.01060265585688417 stall=0.12083626873576407/8ms ckpt=19", Rounds: 1},
	"slow/6":        {Line: "chain 6 (seed -4373826470845021568): slow w=2 ops=20 ackBudget=2ms nv=0.0011457146383180906 dev=0.0022768382807817704 fsync=0.024843065890703536 stall=0.13738268367613937/3ms ckpt=10", Rounds: 1},
	"slow/7":        {Line: "chain 7 (seed -2262517385565684571): slow w=2 ops=25 ackBudget=6ms nv=0.0011751208029743977 dev=0.0009995767185579758 fsync=0.0005330379734377601 stall=0.16277268111346338/6ms ckpt=12", Rounds: 1},
}

// Re-recorded on purpose: plain/0, faults/6 and heap24/0, 2, 4 and 7
// moved when the reboot heap pass began persisting once per pass, which
// shifts the crash coordinates of every later persistence operation.
var chainsExactGolden = map[string]exactGolden{
	"plain/0":   {5, 30, 0, false, 0x7ca36de81a393b7},
	"plain/1":   {5, 24, 0, false, 0xeee1f6679087633d},
	"plain/2":   {4, 25, 0, false, 0xb35d0df990ca40d9},
	"plain/3":   {6, 34, 0, false, 0xf15db6739c04e84},
	"plain/4":   {3, 24, 0, false, 0xc025625c91a5ea5e},
	"plain/5":   {5, 31, 0, false, 0x995b8032efbc9c3c},
	"plain/6":   {3, 12, 0, false, 0x5efab0af6fb9120b},
	"plain/7":   {4, 29, 0, false, 0x14ad96c65ec5251b},
	"faults/0":  {5, 31, 0, false, 0x1581db59f485e8a},
	"faults/1":  {5, 27, 0, false, 0x4d797cad4f267259},
	"faults/2":  {4, 23, 0, false, 0x4a34a3993df3940e},
	"faults/3":  {6, 29, 0, false, 0x13b0be6789df6932},
	"faults/4":  {3, 22, 0, false, 0x703ab4824b5ac5f1},
	"faults/5":  {5, 33, 1, false, 0x56bc40be5c1b5d2f},
	"faults/6":  {3, 12, 0, false, 0x2a6d343bf0f8eb96},
	"faults/7":  {4, 30, 0, false, 0xdc88890716091927},
	"heap24/0":  {5, 29, 0, false, 0x831a1bc82004fe1b},
	"heap24/1":  {5, 23, 0, false, 0x3cf64c1ebda450ed},
	"heap24/2":  {4, 17, 0, false, 0x311011ed310ae4ef},
	"heap24/3":  {6, 26, 0, false, 0x2309991a91c81889},
	"heap24/4":  {3, 17, 0, false, 0x9d0ce47cab4fbd9b},
	"heap24/5":  {5, 34, 0, false, 0x1bb3613525fb5139},
	"heap24/6":  {3, 10, 0, false, 0xb51d2ac849f3b784},
	"heap24/7":  {4, 25, 0, false, 0x2c72cbc8b340098b},
	"shards4/0": {5, 25, 0, false, 0x7ce66869b10ce9cd},
	"shards4/1": {4, 25, 0, false, 0xb828b69eca2860d},
	"shards4/2": {5, 37, 0, false, 0xb6c05ff933ff4250},
	"shards4/3": {4, 19, 0, false, 0x640e0c003436b690},
	"shards4/4": {3, 23, 0, false, 0xf7d43d513fea5737},
	"shards4/5": {3, 31, 0, false, 0xfc7e0c2a9f007f67},
	"shards4/6": {4, 36, 0, false, 0x900a09a48ade36a5},
	"shards4/7": {5, 42, 0, false, 0xa32e080566759c15},
}

var chainsBugGolden = bugGolden{Step: 0, Round: 0, Kind: "durability", Line: "chain 0 (seed 1346066267577507604): LS w=1 gc=1 bg=false churn=false rd=false rounds=5 ckpt=1048576"}
