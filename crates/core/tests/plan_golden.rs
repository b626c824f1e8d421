//! Golden plan hashes for every planner entry point.
//!
//! Every thread-invariant output of the planners is folded into one FNV-1a
//! hash per case: `optimize` plans, `optimize_dag` chain and DAG plans,
//! every `optimize_sweep` / `optimize_dag_sweep` / `optimize_pipelined`
//! point with its frontier flags, and the `b1`–`b4` baseline plans. The
//! cases cover MobileNet, ResNet-50 and Inception-v3 at batch 1, 8 and 64,
//! free-running and under two binding SLOs. Each case is computed at one
//! and at two threads, and the two hashes must agree before they are
//! compared with the constants.
//!
//! Wall-clock `Duration`s and the counters that racing workers may inflate
//! (MIQP solves, B&B nodes, relaxations, warm starts, memo hits and
//! misses) are left out. A moved hash is a behaviour change, not a
//! refactor: on a mismatch the test prints the whole actual table.

use ampsinf_core::baselines::{b1_random, b2_greedy_max, b3_optimal, b4_bucket_scan};
use ampsinf_core::{AmpsConfig, Optimizer, SweepGrid};
use ampsinf_model::{zoo, LayerGraph};
use std::fmt::Debug;

/// 64-bit FNV-1a of `value`'s `Debug` rendering, which prints every field,
/// nested ones included, and every float exactly (its shortest
/// round-trip form, so two renderings agree iff the bits agree).
fn fnv(value: &impl Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Batch sizes every model is planned at. Batch 64 adds the one regime
/// where Inception-v3's branch-parallel plan beats the chain.
const BATCHES: [u64; 3] = [1, 8, 64];

/// Binding SLOs as fractions of the batch's free-running chain time. At
/// batch 1 both bind on every model; at larger batches the free-running
/// plan is near the fastest one, so the tighter one is often infeasible,
/// and that error is pinned too.
const BINDING: [f64; 2] = [0.999, 0.95];

/// The free-running chain time at `batch`.
fn free_time(g: &LayerGraph, batch: u64) -> f64 {
    let cfg = AmpsConfig {
        batch_size: batch,
        ..AmpsConfig::default()
    };
    Optimizer::new(cfg.with_threads(1))
        .optimize(g)
        .expect("free-running plan is feasible")
        .plan
        .predicted_time_s
}

/// `(case, hash)` for every planner output on `g` at `threads`.
fn plan_cases(g: &LayerGraph, threads: usize) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut grid_slos = Vec::new();
    for batch in BATCHES {
        let free = free_time(g, batch);
        let slos = [None, Some(BINDING[0] * free), Some(BINDING[1] * free)];
        for (si, slo) in slos.into_iter().enumerate() {
            let cfg = AmpsConfig {
                batch_size: batch,
                slo_s: slo,
                ..AmpsConfig::default()
            }
            .with_threads(threads);
            let opt = Optimizer::new(cfg);
            let chain = opt
                .optimize(g)
                .map(|r| (r.plan, r.cuts_considered, r.miqps_pruned));
            out.push((format!("optimize/b{batch}/slo{si}"), fnv(&chain)));
            let dag = opt.optimize_dag(g).map(|r| {
                (
                    r.chain.plan,
                    r.chain.cuts_considered,
                    r.chain.miqps_pruned,
                    r.dag,
                    r.regions_considered,
                    r.regions_used,
                    r.search.trials_evaluated,
                )
            });
            out.push((format!("optimize_dag/b{batch}/slo{si}"), fnv(&dag)));
        }
        // Grid SLOs: both binding fractions, a slack one, and a duplicate,
        // given out of order.
        grid_slos.extend([
            BINDING[1] * free,
            BINDING[0] * free,
            2.0 * free,
            BINDING[0] * free,
        ]);
    }

    let grid = SweepGrid::from_slos(grid_slos).with_batches(BATCHES.to_vec());
    let opt = Optimizer::new(AmpsConfig::default().with_threads(threads));

    let sweep = opt.optimize_sweep(g, &grid);
    for (i, p) in sweep.points.iter().enumerate() {
        let key = (
            p.slo_s,
            p.batch,
            &p.outcome,
            p.dominated,
            p.knee,
            p.stats.miqps_pruned,
            p.stats.seeded,
            p.stats.seed_fallback,
        );
        out.push((format!("sweep/point{i:02}"), fnv(&key)));
    }
    out.push((
        "sweep/pareto".into(),
        fnv(&(&sweep.pareto, sweep.cuts_considered)),
    ));

    let dag_sweep = opt.optimize_dag_sweep(g, &grid);
    for (i, p) in dag_sweep.points.iter().enumerate() {
        let key = (
            p.slo_s,
            p.batch,
            &p.outcome,
            &p.dag,
            p.regions_used,
            p.dominated,
            p.knee,
            p.stats.miqps_pruned,
            p.stats.seeded,
            p.stats.seed_fallback,
            p.search.trials_evaluated,
        );
        out.push((format!("dag_sweep/point{i:02}"), fnv(&key)));
    }
    out.push((
        "dag_sweep/pareto".into(),
        fnv(&(
            &dag_sweep.pareto,
            dag_sweep.cuts_considered,
            dag_sweep.regions_considered,
        )),
    ));

    let pipelined = opt.optimize_pipelined(g, &grid);
    for (i, p) in pipelined.points.iter().enumerate() {
        let key = (p.slo_s, p.batch, &p.outcome, p.dominated);
        out.push((format!("pipelined/point{i:02}"), fnv(&key)));
    }
    out.push((
        "pipelined/best".into(),
        fnv(&(pipelined.best, pipelined.cuts_considered)),
    ));

    let cfg = AmpsConfig::default().with_threads(threads);
    out.push(("b1_random/seed7".into(), fnv(&b1_random(g, &cfg, 7))));
    out.push(("b2_greedy_max".into(), fnv(&b2_greedy_max(g, &cfg))));
    out.push(("b3_optimal".into(), fnv(&b3_optimal(g, &cfg))));
    out.push(("b4_bucket_scan/3".into(), fnv(&b4_bucket_scan(g, &cfg, 3))));
    out
}

/// Plans `g` at one and two threads, requires the two tables to agree,
/// and checks them against `golden`, one `case hash` line per case.
fn check_model(g: &LayerGraph, golden: &str) {
    let serial = plan_cases(g, 1);
    let parallel = plan_cases(g, 2);
    for ((case, a), (_, b)) in serial.iter().zip(&parallel) {
        assert_eq!(a, b, "{}: {case} differs between 1 and 2 threads", g.name);
    }
    let table: String = serial
        .iter()
        .map(|(case, h)| format!("    {case:<24} {h:016x}\n"))
        .collect();
    let words = |t: &str| t.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
    assert!(
        words(&table) == words(golden),
        "{}: golden hashes moved; actual:\n{table}",
        g.name
    );
}

#[test]
fn mobilenet_plans_match_golden_hashes() {
    check_model(&zoo::mobilenet_v1(), MOBILENET);
}

#[test]
fn resnet50_plans_match_golden_hashes() {
    check_model(&zoo::resnet50(), RESNET50);
}

#[test]
fn inception_v3_plans_match_golden_hashes() {
    check_model(&zoo::inception_v3(), INCEPTION_V3);
}

const MOBILENET: &str = "
    optimize/b1/slo0         932daf6b226d6e4f
    optimize_dag/b1/slo0     21bffdc879676ea3
    optimize/b1/slo1         b5952b37811dd6f3
    optimize_dag/b1/slo1     4a939b0f8c359edf
    optimize/b1/slo2         7d4382c9d7d49904
    optimize_dag/b1/slo2     3fcde53cbd69316a
    optimize/b8/slo0         96278f97a1870ba5
    optimize_dag/b8/slo0     b113309dc869ae99
    optimize/b8/slo1         0e7b3d14179ab1b6
    optimize_dag/b8/slo1     1bdaf4a99139199c
    optimize/b8/slo2         0e7b3d14179ab1b6
    optimize_dag/b8/slo2     1bdaf4a99139199c
    optimize/b64/slo0        f98aa1f46e25fa8e
    optimize_dag/b64/slo0    6258c5eb564ff934
    optimize/b64/slo1        9d155f5a391077f7
    optimize_dag/b64/slo1    f3adedf4ab4e442b
    optimize/b64/slo2        414f7c3fd04a7855
    optimize_dag/b64/slo2    414f7c3fd04a7855
    sweep/point00            e378581bba207489
    sweep/point01            1048720a7efb55fe
    sweep/point02            c2afe013ee3dcd9f
    sweep/point03            c8cd932d3c29abfe
    sweep/point04            9ba26014b8094413
    sweep/point05            cd51e2be13b1742e
    sweep/point06            0142526dd8dfa67a
    sweep/point07            cd51e2be13b1742e
    sweep/point08            1c39d667add4dc3e
    sweep/point09            23938d89f4530afc
    sweep/point10            22b40e9ddc158a82
    sweep/point11            23938d89f4530afc
    sweep/point12            0d3ac63ca4fd82c0
    sweep/point13            1ceb0eb55771ea04
    sweep/point14            149b4da154fab83c
    sweep/point15            1ceb0eb55771ea04
    sweep/point16            c3e88d4930325477
    sweep/point17            73caeb35d2b3e874
    sweep/point18            f0dac2d68741c9bf
    sweep/point19            73caeb35d2b3e874
    sweep/point20            02daad288ebec413
    sweep/point21            31bdf2bc4734e2d9
    sweep/point22            37721919e3536eff
    sweep/point23            31bdf2bc4734e2d9
    sweep/point24            60e8d5ba4ecf66c8
    sweep/point25            31c07be36ef1bba4
    sweep/point26            ad3635c0d5cd73e2
    sweep/point27            31c07be36ef1bba4
    sweep/point28            e499253bd15d1c2b
    sweep/point29            9454312a54e51f8e
    sweep/point30            80f5a4f35e59cb58
    sweep/point31            9454312a54e51f8e
    sweep/point32            7262c57d91f61fcc
    sweep/point33            3e2ea4653a0123cb
    sweep/point34            4e11820904eab1f2
    sweep/point35            18d4c334a7727ecf
    sweep/pareto             95d58c8f93db3eaf
    dag_sweep/point00        1895af4ca491a7c3
    dag_sweep/point01        72f01a52e44b4458
    dag_sweep/point02        0a9074c05b73d8f7
    dag_sweep/point03        483e5929bcca20d8
    dag_sweep/point04        056d89d11823004d
    dag_sweep/point05        60cc5c17ec389e48
    dag_sweep/point06        df6b5ba2729f0d0c
    dag_sweep/point07        60cc5c17ec389e48
    dag_sweep/point08        1189d4f5bc7d9818
    dag_sweep/point09        ccdd4389520259fa
    dag_sweep/point10        cb63816b27c935b4
    dag_sweep/point11        ccdd4389520259fa
    dag_sweep/point12        44109a046fa4f3fe
    dag_sweep/point13        139558f28fe77f6a
    dag_sweep/point14        4b9fb751745ee95c
    dag_sweep/point15        139558f28fe77f6a
    dag_sweep/point16        9ffd446581b715e5
    dag_sweep/point17        f8412aa9fdf568f2
    dag_sweep/point18        8ce6e05692a18925
    dag_sweep/point19        f8412aa9fdf568f2
    dag_sweep/point20        548afd5d0658a911
    dag_sweep/point21        151ff0683355edcb
    dag_sweep/point22        21b60ab94f2961b5
    dag_sweep/point23        151ff0683355edcb
    dag_sweep/point24        46439a9840848226
    dag_sweep/point25        1ec7da313c4d8eca
    dag_sweep/point26        b1b30271a3c17b9c
    dag_sweep/point27        1ec7da313c4d8eca
    dag_sweep/point28        4797e7ee53e75b11
    dag_sweep/point29        181dd1411f4c0fc0
    dag_sweep/point30        695fb8fdbb677776
    dag_sweep/point31        181dd1411f4c0fc0
    dag_sweep/point32        9b6e8b4ae8cacfd2
    dag_sweep/point33        6f4361c9e148aef1
    dag_sweep/point34        6d00f7de956d4224
    dag_sweep/point35        6510855ba6bc19c5
    dag_sweep/pareto         05e692414af6aaab
    pipelined/point00        21f6d62775056345
    pipelined/point01        de6733339ed4eed2
    pipelined/point02        75ba26fdbfad96e9
    pipelined/point03        de6733339ed4eed2
    pipelined/point04        4e5f38913cc7d3ab
    pipelined/point05        e4d6f66e74974bb6
    pipelined/point06        4b216ec431ec8f18
    pipelined/point07        e4d6f66e74974bb6
    pipelined/point08        55c2ec9c7fd3429c
    pipelined/point09        206cb22ec6c69112
    pipelined/point10        202b652dd6dfaac0
    pipelined/point11        206cb22ec6c69112
    pipelined/point12        8613cafe5e183179
    pipelined/point13        19b4d89f6a2835e5
    pipelined/point14        094050955cd39eba
    pipelined/point15        19b4d89f6a2835e5
    pipelined/point16        d479abb5a950470c
    pipelined/point17        0fbfe30132ee67d0
    pipelined/point18        bbdcba22d49950a5
    pipelined/point19        0fbfe30132ee67d0
    pipelined/point20        928cb2ca7600c289
    pipelined/point21        ee205339f6740d0f
    pipelined/point22        939099e2d9ba1a8d
    pipelined/point23        ee205339f6740d0f
    pipelined/point24        5f89447d015108d1
    pipelined/point25        cb0cdf405dbcb005
    pipelined/point26        3dcb53773e3fe2a3
    pipelined/point27        cb0cdf405dbcb005
    pipelined/point28        51fb25d814edcf9e
    pipelined/point29        c95b0a74c93e39f7
    pipelined/point30        9d9ca3b6c8c64021
    pipelined/point31        c95b0a74c93e39f7
    pipelined/point32        8fd46b7362735b5d
    pipelined/point33        5eaf83c3d437b5dc
    pipelined/point34        48f8c5f02519ded0
    pipelined/point35        4fe4e124e7ecfa99
    pipelined/best           d187152a8cf56187
    b1_random/seed7          c715104e668a910a
    b2_greedy_max            6e5eb3dc3127bd15
    b3_optimal               04787959b5a503fa
    b4_bucket_scan/3         874e4a3a65c99506
";

const RESNET50: &str = "
    optimize/b1/slo0         9f5efcfd569a2f33
    optimize_dag/b1/slo0     6d6a7092e12feddf
    optimize/b1/slo1         22d0482a4aa74849
    optimize_dag/b1/slo1     6c82b93db6b7bd65
    optimize/b1/slo2         5380d2da93e51706
    optimize_dag/b1/slo2     a934bb413092080c
    optimize/b8/slo0         8a420323be5fc6f5
    optimize_dag/b8/slo0     8723adf9449fd8e9
    optimize/b8/slo1         414f7c3fd04a7855
    optimize_dag/b8/slo1     414f7c3fd04a7855
    optimize/b8/slo2         414f7c3fd04a7855
    optimize_dag/b8/slo2     414f7c3fd04a7855
    optimize/b64/slo0        839fc5dade71aa8b
    optimize_dag/b64/slo0    f9e72f5998fe9848
    optimize/b64/slo1        414f7c3fd04a7855
    optimize_dag/b64/slo1    414f7c3fd04a7855
    optimize/b64/slo2        414f7c3fd04a7855
    optimize_dag/b64/slo2    414f7c3fd04a7855
    sweep/point00            1530660cdf3e8b54
    sweep/point01            df418b0f0c679d61
    sweep/point02            d950c4d4c973c4c0
    sweep/point03            c03368e509329a0d
    sweep/point04            4d7679a3766d3bac
    sweep/point05            e7d2d56a8cdae6e5
    sweep/point06            1b301138e57c24af
    sweep/point07            e7d2d56a8cdae6e5
    sweep/point08            73975b0f68c2072f
    sweep/point09            cdbeb2ea9e1eb62b
    sweep/point10            a32b269e66ac1460
    sweep/point11            cdbeb2ea9e1eb62b
    sweep/point12            0fab26bc24a6cac9
    sweep/point13            ec8f5e56b6bead51
    sweep/point14            d1d9f5feb98f5c29
    sweep/point15            ec8f5e56b6bead51
    sweep/point16            61b80d488db36b1a
    sweep/point17            10f6a9fbc6a81ccb
    sweep/point18            412fdc52951d7bec
    sweep/point19            10f6a9fbc6a81ccb
    sweep/point20            301374c5e8be8638
    sweep/point21            881efeea726092c4
    sweep/point22            bff7e5982d696bdd
    sweep/point23            881efeea726092c4
    sweep/point24            63c10ae0b9e9a5ab
    sweep/point25            baf0296cf72f1493
    sweep/point26            46f14b53e807d50b
    sweep/point27            baf0296cf72f1493
    sweep/point28            38d390b3a951cc92
    sweep/point29            c2096b08e2009ccd
    sweep/point30            efe9d8401ff66afb
    sweep/point31            c2096b08e2009ccd
    sweep/point32            24b23b722b13c27b
    sweep/point33            f1a954986806b8ff
    sweep/point34            944a2e9b7ff0432f
    sweep/point35            f1a954986806b8ff
    sweep/pareto             eac4d4cfacc41a51
    dag_sweep/point00        8ad05536686e2a56
    dag_sweep/point01        133e823cf284ca7b
    dag_sweep/point02        6115e8d2c8eea580
    dag_sweep/point03        fe118eb0cb15744f
    dag_sweep/point04        3ead6243e5291dd6
    dag_sweep/point05        6a4ea31f6068cb3b
    dag_sweep/point06        3acbcfd0674e1c89
    dag_sweep/point07        6a4ea31f6068cb3b
    dag_sweep/point08        5d360db5b72bb709
    dag_sweep/point09        c981b7e960d9e045
    dag_sweep/point10        9ba08dcc894ff09a
    dag_sweep/point11        c981b7e960d9e045
    dag_sweep/point12        d6be10c93ad71e03
    dag_sweep/point13        998c87087fbfffab
    dag_sweep/point14        1d3605a7957f35a3
    dag_sweep/point15        998c87087fbfffab
    dag_sweep/point16        f0b9fdf8070a2b54
    dag_sweep/point17        de26af8c0532d7f1
    dag_sweep/point18        613d6e7f4cc3153e
    dag_sweep/point19        de26af8c0532d7f1
    dag_sweep/point20        1a59256516203712
    dag_sweep/point21        f40d4667ff69190e
    dag_sweep/point22        871d3fdeee15d5f3
    dag_sweep/point23        f40d4667ff69190e
    dag_sweep/point24        6f90bb3f80266c91
    dag_sweep/point25        8c042e43adf75519
    dag_sweep/point26        2e4d1712503a1b31
    dag_sweep/point27        8c042e43adf75519
    dag_sweep/point28        45ac2d3f5095804c
    dag_sweep/point29        c21d84ef17a0768f
    dag_sweep/point30        90556110b9d85d21
    dag_sweep/point31        c21d84ef17a0768f
    dag_sweep/point32        ab5f5b783d45dca1
    dag_sweep/point33        a1942ea05883c40d
    dag_sweep/point34        bec95d44e6141042
    dag_sweep/point35        a1942ea05883c40d
    dag_sweep/pareto         11b406ed5145387c
    pipelined/point00        95faf259031dde4a
    pipelined/point01        ff61762bb7f2678f
    pipelined/point02        32727b9916890c99
    pipelined/point03        ff61762bb7f2678f
    pipelined/point04        41401fe52d72f2f1
    pipelined/point05        7f767412ee468850
    pipelined/point06        9e905ff72c58e91a
    pipelined/point07        7f767412ee468850
    pipelined/point08        a167c34acdb39f9a
    pipelined/point09        0ca2b66dd03ce45e
    pipelined/point10        8fe2fb63811c7ffd
    pipelined/point11        0ca2b66dd03ce45e
    pipelined/point12        54e1c8407eadf71c
    pipelined/point13        29b258572cef0b14
    pipelined/point14        4eb8f1e8ce1eb2fc
    pipelined/point15        29b258572cef0b14
    pipelined/point16        b86f6a98c9179d0b
    pipelined/point17        d4609e24aeaaae3e
    pipelined/point18        cf70f33a30fd5b7b
    pipelined/point19        d4609e24aeaaae3e
    pipelined/point20        8ec83df46fa4703e
    pipelined/point21        9d75a8faf6d481a7
    pipelined/point22        82837a1fe2bbaaf8
    pipelined/point23        9d75a8faf6d481a7
    pipelined/point24        49e135eccdedc91e
    pipelined/point25        9d3d72a1900918b6
    pipelined/point26        cc435a314523f1fe
    pipelined/point27        9d3d72a1900918b6
    pipelined/point28        d3f472cd56e82e13
    pipelined/point29        4793d423e8ba88c8
    pipelined/point30        0a198893b2e378ae
    pipelined/point31        4793d423e8ba88c8
    pipelined/point32        949110603ed3002e
    pipelined/point33        7261fd87c71d85ea
    pipelined/point34        4cdf60b14ce4b839
    pipelined/point35        7261fd87c71d85ea
    pipelined/best           d187152a8cf56187
    b1_random/seed7          5769bacaf21c3896
    b2_greedy_max            d9fa8782bc576724
    b3_optimal               66faca93c8eaa7a9
    b4_bucket_scan/3         0d0a6c4761123eec
";

const INCEPTION_V3: &str = "
    optimize/b1/slo0         333a7463bb17feaf
    optimize_dag/b1/slo0     c3041dc22f798f93
    optimize/b1/slo1         dbb3a022c858d813
    optimize_dag/b1/slo1     2719814650d9be8f
    optimize/b1/slo2         93edcbfd4c70f185
    optimize_dag/b1/slo2     1e2c1f98c7262079
    optimize/b8/slo0         7c4e3e98512e8bf1
    optimize_dag/b8/slo0     292569e951c4cc0d
    optimize/b8/slo1         9025d09b3c8cad62
    optimize_dag/b8/slo1     76d4c2f2fe099610
    optimize/b8/slo2         414f7c3fd04a7855
    optimize_dag/b8/slo2     414f7c3fd04a7855
    optimize/b64/slo0        8880ee7ead166f0b
    optimize_dag/b64/slo0    35eaba96745cd7c0
    optimize/b64/slo1        37be3232a14e4ac4
    optimize_dag/b64/slo1    55c4331d9bf11a55
    optimize/b64/slo2        414f7c3fd04a7855
    optimize_dag/b64/slo2    414f7c3fd04a7855
    sweep/point00            b9e57a1a24c02f41
    sweep/point01            3e8db4f51e90ee26
    sweep/point02            0505ab60608279f6
    sweep/point03            a67820e29b5fa8a6
    sweep/point04            30480a2f6d82a81a
    sweep/point05            6c3ee92787f46526
    sweep/point06            f5b26d4f2a65fda5
    sweep/point07            6c3ee92787f46526
    sweep/point08            0371fa6cb7b6bf1a
    sweep/point09            8f7aa591d834c915
    sweep/point10            9e5257e4863412e6
    sweep/point11            8f7aa591d834c915
    sweep/point12            10e61bb03feb58c5
    sweep/point13            79d7aa4e62b143e4
    sweep/point14            11a1a43ce88d8f7f
    sweep/point15            79d7aa4e62b143e4
    sweep/point16            f4ace95eddd48e4a
    sweep/point17            36fe93276b19778c
    sweep/point18            4e3f400ad6289bf2
    sweep/point19            b50b4ff39c669ad8
    sweep/point20            bdad15581a593c55
    sweep/point21            a1c53237236876e2
    sweep/point22            117e640e6e27e889
    sweep/point23            a1c53237236876e2
    sweep/point24            490a767e6421722f
    sweep/point25            55cc41062be9ec04
    sweep/point26            cdfd3287cf637ca9
    sweep/point27            55cc41062be9ec04
    sweep/point28            ec5ed650bc3b8782
    sweep/point29            d1c6b962a35feaa6
    sweep/point30            9ed0e873ff98ae19
    sweep/point31            d1c6b962a35feaa6
    sweep/point32            874611bfb4c80e82
    sweep/point33            3d5027510e45dbe9
    sweep/point34            96ec0e1a210dd178
    sweep/point35            31fc712b03296b0d
    sweep/pareto             6cf9622860c13050
    dag_sweep/point00        109665db3e95d24d
    dag_sweep/point01        9c47d377bded0434
    dag_sweep/point02        b5581175815c4386
    dag_sweep/point03        7509dcc2a9c22a34
    dag_sweep/point04        9a5e082b545efea8
    dag_sweep/point05        5d6e9e1944f71e24
    dag_sweep/point06        4bb39e846d3a5b89
    dag_sweep/point07        5d6e9e1944f71e24
    dag_sweep/point08        35754999779883a8
    dag_sweep/point09        e16f1cdc2b6fa5b9
    dag_sweep/point10        aa6280690f679b64
    dag_sweep/point11        e16f1cdc2b6fa5b9
    dag_sweep/point12        251d3482a8bf0fe7
    dag_sweep/point13        2cc4622d0f09e30a
    dag_sweep/point14        f0c79f644faa128d
    dag_sweep/point15        2cc4622d0f09e30a
    dag_sweep/point16        8671b8fb414bfb44
    dag_sweep/point17        07f2603643a90cfa
    dag_sweep/point18        bec8085d7a714410
    dag_sweep/point19        dc50173e24c58cee
    dag_sweep/point20        8d325ca8f5012779
    dag_sweep/point21        c3bc2de223e3a4c0
    dag_sweep/point22        76a770b7e174740d
    dag_sweep/point23        c3bc2de223e3a4c0
    dag_sweep/point24        8b96f4c12b14587d
    dag_sweep/point25        4c0f3a955350e16a
    dag_sweep/point26        4182d1553b45ae23
    dag_sweep/point27        4c0f3a955350e16a
    dag_sweep/point28        52c08a9e555290fc
    dag_sweep/point29        31b3260f01fe2978
    dag_sweep/point30        49770f9845a9c793
    dag_sweep/point31        31b3260f01fe2978
    dag_sweep/point32        6e37b1418e03e7fc
    dag_sweep/point33        491bdc0e1f08e014
    dag_sweep/point34        270ca4aaabe4a796
    dag_sweep/point35        5527c29901fcdb50
    dag_sweep/pareto         d1d37de054fcd1a3
    pipelined/point00        a047c1db26d84b19
    pipelined/point01        e5047ead41b4c8df
    pipelined/point02        324d597fcba2b74d
    pipelined/point03        e5047ead41b4c8df
    pipelined/point04        4167ed001c62310d
    pipelined/point05        336ce17f3e1930a1
    pipelined/point06        1f56d5b7d8cc98d6
    pipelined/point07        336ce17f3e1930a1
    pipelined/point08        1f77a0699145f00d
    pipelined/point09        2b7a3e1b8e756c06
    pipelined/point10        eb00d588a9f84fe1
    pipelined/point11        2b7a3e1b8e756c06
    pipelined/point12        3e4952a936db8750
    pipelined/point13        63021ac7a95140c5
    pipelined/point14        0efdcb42f3acec6a
    pipelined/point15        63021ac7a95140c5
    pipelined/point16        576168914358aafb
    pipelined/point17        f3b683736ac46b22
    pipelined/point18        d0ae3c6ade151573
    pipelined/point19        ff029214bcef1d9f
    pipelined/point20        39f464247f8c07c3
    pipelined/point21        6b00ce64bb534764
    pipelined/point22        d1a52d45e170f8cf
    pipelined/point23        6b00ce64bb534764
    pipelined/point24        d188753be4d4d2da
    pipelined/point25        baca26e32a1377e5
    pipelined/point26        28591a721dc3a37c
    pipelined/point27        baca26e32a1377e5
    pipelined/point28        6f55430dfcf1b343
    pipelined/point29        44d9a82b326c7bdf
    pipelined/point30        3089a1e1df8b6cac
    pipelined/point31        44d9a82b326c7bdf
    pipelined/point32        c915179783619a43
    pipelined/point33        19dd8d08b7ad0e42
    pipelined/point34        cc1772780b87f8e7
    pipelined/point35        19dd8d08b7ad0e42
    pipelined/best           d187152a8cf56187
    b1_random/seed7          8e31ba58faec7570
    b2_greedy_max            a4f094abaa7c0796
    b3_optimal               27bb8217a03376d3
    b4_bucket_scan/3         b00beddcc5de302d
";
