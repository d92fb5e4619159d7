package core

// equivGolden was recorded at the commit preceding the single append
// kernel (writeFramesMode, the CommitStreams fork and CompletePrepared's
// own mark-persist and publish halves).
var equivGolden = map[string]equivOutcome{
	"transaction/NVWAL LS":                    {Hash: 0x219ae64d55a902c1, Now: 4422789, Ops: 4360, Counters: 0x5b2460d1},
	"transaction/NVWAL LS+Diff":               {Hash: 0x400645c92628c549, Now: 4091809, Ops: 2359, Counters: 0x6db645a5},
	"transaction/NVWAL CS+Diff":               {Hash: 0x903f7bfa9171a6a6, Now: 4332294, Ops: 4812, Counters: 0x8b3f06d},
	"transaction/NVWAL UH+LS":                 {Hash: 0xa992a226dfd54985, Now: 3933709, Ops: 4094, Counters: 0xef3228f0},
	"transaction/NVWAL UH+LS+Diff":            {Hash: 0x239bb6ba098ea2a9, Now: 3385113, Ops: 1927, Counters: 0xc7b967f4},
	"transaction/NVWAL UH+CS+Diff":            {Hash: 0x3eda5564d8add31e, Now: 3345638, Ops: 1944, Counters: 0x8e8911a6},
	"transaction/NVWAL E":                     {Hash: 0x219ae64d55a902c1, Now: 4465394, Ops: 4417, Counters: 0x228955ad},
	"transaction/NVWAL SP":                    {Hash: 0x239bb6ba098ea2a9, Now: 3361288, Ops: 820, Counters: 0x6544fbf7},
	"transaction/NVWAL EP":                    {Hash: 0x239bb6ba098ea2a9, Now: 3337788, Ops: 820, Counters: 0x96256522},
	"transaction/NVWAL UH+LS+Diff early-mark": {Hash: 0xb9b873f3707edbc2, Now: 3373113, Ops: 1915, Counters: 0x69ea4ee6},
	"streams/NVWAL LS":                        {Hash: 0x17f823c3556a12bc, Now: 5163125, Ops: 4517, Counters: 0xdff2e9e8},
	"streams/NVWAL LS+Diff":                   {Hash: 0xc7b4218d6bcd86d7, Now: 5044557, Ops: 4053, Counters: 0xcb82532c},
	"streams/NVWAL CS+Diff":                   {Hash: 0x669f9f9e69f5f4b8, Now: 5230482, Ops: 6115, Counters: 0x7d2d2de},
	"streams/NVWAL UH+LS":                     {Hash: 0xa5035f6f931c1f34, Now: 4667834, Ops: 4229, Counters: 0xfc378bef},
	"streams/NVWAL UH+LS+Diff":                {Hash: 0x785fd991578d7df3, Now: 4545080, Ops: 3766, Counters: 0x9b95a20d},
	"streams/NVWAL UH+CS+Diff":                {Hash: 0xd918efd83bc9a622, Now: 4514515, Ops: 3910, Counters: 0x54dd8506},
	"streams/NVWAL E":                         {Hash: 0x17f823c3556a12bc, Now: 5207830, Ops: 4580, Counters: 0xb0233981},
	"streams/NVWAL SP":                        {Hash: 0x785fd991578d7df3, Now: 4527871, Ops: 956, Counters: 0xa73bc8df},
	"streams/NVWAL EP":                        {Hash: 0x785fd991578d7df3, Now: 4497871, Ops: 956, Counters: 0xe44ca8fa},
	"streams/NVWAL UH+LS+Diff early-mark":     {Hash: 0xc93661b57e2426a9, Now: 4534925, Ops: 3756, Counters: 0xa4cd172},
	"prepare/NVWAL LS":                        {Hash: 0xf784a7fe3500244a, Now: 3001644, Ops: 2005, Counters: 0x9fbd655},
	"prepare/NVWAL LS+Diff":                   {Hash: 0x5f41d97c63d79672, Now: 2938669, Ops: 1763, Counters: 0x1e94029},
	"prepare/NVWAL CS+Diff":                   {Hash: 0x6ebd17efa4a2c29a, Now: 2901234, Ops: 1599, Counters: 0x5ccf589f},
	"prepare/NVWAL UH+LS":                     {Hash: 0x23ba1848c0740a86, Now: 2806206, Ops: 1915, Counters: 0xb67cea71},
	"prepare/NVWAL UH+LS+Diff":                {Hash: 0xa45cc54ca2434366, Now: 2800558, Ops: 1715, Counters: 0x8ba004cf},
	"prepare/NVWAL UH+CS+Diff":                {Hash: 0x3f5d3dac66a4e377, Now: 2746933, Ops: 1424, Counters: 0xd32ff9e2},
	"prepare/NVWAL E":                         {Hash: 0xf784a7fe3500244a, Now: 3010154, Ops: 2017, Counters: 0x29b2e06f},
	"prepare/NVWAL SP":                        {Hash: 0xa45cc54ca2434366, Now: 2775636, Ops: 809, Counters: 0x19ed262d},
	"prepare/NVWAL EP":                        {Hash: 0xa45cc54ca2434366, Now: 2769636, Ops: 809, Counters: 0x1699d0f3},
	"prepare/NVWAL UH+LS+Diff early-mark":     {Hash: 0x83dca27810f6346e, Now: 2794518, Ops: 1709, Counters: 0xa9dbfd9},
}
