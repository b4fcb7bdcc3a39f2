//! The sequence-alignment race array of paper Section 4 (Fig. 4).
//!
//! An N×M grid of identical unit cells implements the edit graph in
//! hardware. Each cell is an OR gate fed by three delayed inputs: from
//! the left (deletion), from above (insertion), and from the diagonal
//! gated by the symbol-match comparator (Eq. 2). The score of aligning
//! the two strings is the number of clock cycles between injecting a `1`
//! at the top-left cell and observing the output cell rise.
//!
//! Two execution engines are provided:
//!
//! - [`AlignmentRace::run_functional`] — an `O(N·M)` arrival-time
//!   computation (the race's fixed point), fast enough for the large-N
//!   sweeps of Figs. 5 and 9;
//! - [`AlignmentRace::build_circuit`] + [`GateLevelAlignment::run`] — the
//!   real netlist on the cycle-accurate simulator, used as ground truth
//!   and as the source of toggle statistics for the energy model.

use rl_bio::{alphabet::Symbol, Seq};
use rl_circuit::{stdcells, Census, CycleSimulator, Net, Netlist};
use rl_temporal::Time;

use crate::wavefront::WavefrontTrace;
use crate::RaceError;

/// Delay weights for the three edit operations of the alignment array.
///
/// `mismatched: None` encodes the paper's infinite mismatch weight
/// (Section 3: "the scoring matrix is slightly modified by replacing
/// weights for mismatches from 2 to infinity"), which removes the
/// mismatch delay chain from the cell entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceWeights {
    /// Diagonal delay when the symbols match.
    pub matched: u64,
    /// Diagonal delay when the symbols differ; `None` = ∞ (no edge).
    pub mismatched: Option<u64>,
    /// Horizontal/vertical delay (insertions and deletions).
    pub indel: u64,
}

impl RaceWeights {
    /// The weights of the synthesized Fig. 4 design: match 1,
    /// mismatch ∞, indel 1 (the modified Fig. 2b matrix).
    #[must_use]
    pub fn fig4() -> Self {
        RaceWeights {
            matched: 1,
            mismatched: None,
            indel: 1,
        }
    }

    /// The unmodified Fig. 2b matrix: match 1, mismatch 2, indel 1.
    #[must_use]
    pub fn fig2b() -> Self {
        RaceWeights {
            matched: 1,
            mismatched: Some(2),
            indel: 1,
        }
    }

    /// Unit-cost Levenshtein weights: match 0, mismatch 1, indel 1.
    /// Note the zero weight: a matched diagonal becomes a plain wire,
    /// legal in this simulator but flagged by the paper as undesirable
    /// for deep synchronous implementations (long combinational paths).
    #[must_use]
    pub fn levenshtein() -> Self {
        RaceWeights {
            matched: 0,
            mismatched: Some(1),
            indel: 1,
        }
    }

    fn validate(&self) {
        assert!(
            self.indel > 0,
            "a zero indel weight would make the whole boundary combinational"
        );
    }
}

/// The outcome of an alignment race.
#[derive(Debug, Clone)]
pub struct AlignmentOutcome {
    arrival: Vec<Time>,
    rows: usize,
    cols: usize,
    /// Toggle statistics when produced by the gate-level engine.
    pub stats: Option<rl_circuit::ActivityStats>,
}

impl AlignmentOutcome {
    /// Assembles an outcome from a raw row-major arrival grid. Used by
    /// the generalized-array runner; ordinary callers receive outcomes
    /// from the run methods.
    ///
    /// # Panics
    ///
    /// Panics if `arrival.len() != (rows+1) * (cols+1)`.
    #[must_use]
    pub fn from_parts(
        arrival: Vec<Time>,
        rows: usize,
        cols: usize,
        stats: Option<rl_circuit::ActivityStats>,
    ) -> Self {
        assert_eq!(
            arrival.len(),
            (rows + 1) * (cols + 1),
            "grid shape mismatch"
        );
        AlignmentOutcome {
            arrival,
            rows,
            cols,
            stats,
        }
    }

    /// Arrival time of cell `(i, j)` (row `i` of Q, column `j` of P),
    /// including the boundary row/column 0.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range.
    #[must_use]
    pub fn arrival(&self, i: usize, j: usize) -> Time {
        assert!(i <= self.rows && j <= self.cols, "cell out of range");
        self.arrival[i * (self.cols + 1) + j]
    }

    /// The final score: arrival time of the output cell `(N, M)`.
    #[must_use]
    pub fn score(&self) -> Time {
        self.arrival(self.rows, self.cols)
    }

    /// The race's latency in cycles (== score, by the encoding).
    #[must_use]
    pub fn latency_cycles(&self) -> Option<u64> {
        self.score().cycles()
    }

    /// The full arrival grid as a wavefront trace (paper Figs. 4c / 6).
    #[must_use]
    pub fn wavefront(&self) -> WavefrontTrace {
        WavefrontTrace::from_grid(self.rows, self.cols, &self.arrival)
    }

    /// Renders the Fig. 4c table: per-cell arrival cycles (`∞` for cells
    /// that never fired).
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for i in 0..=self.rows {
            for j in 0..=self.cols {
                if j > 0 {
                    out.push(' ');
                }
                out.push_str(&format!("{:>3}", self.arrival(i, j)));
            }
            out.push('\n');
        }
        out
    }
}

/// An alignment race over two sequences with given weights.
#[derive(Debug, Clone)]
pub struct AlignmentRace<S: Symbol> {
    q: Seq<S>,
    p: Seq<S>,
    weights: RaceWeights,
}

impl<S: Symbol> AlignmentRace<S> {
    /// Sets up the race of `q` (rows) against `p` (columns).
    ///
    /// # Panics
    ///
    /// Panics if `weights.indel == 0` (see [`RaceWeights`]).
    #[must_use]
    pub fn new(q: &Seq<S>, p: &Seq<S>, weights: RaceWeights) -> Self {
        weights.validate();
        AlignmentRace {
            q: q.clone(),
            p: p.clone(),
            weights,
        }
    }

    /// The configured weights.
    #[must_use]
    pub fn weights(&self) -> RaceWeights {
        self.weights
    }

    /// Runs the race functionally: computes every cell's arrival time by
    /// the min-plus fixed point (`O(N·M)`, no gates). Delegates to the
    /// [`crate::engine`] kernel under
    /// [`crate::engine::KernelStrategy::Auto`]; for score-only or
    /// batched workloads use [`crate::engine::AlignEngine`] directly,
    /// which skips this method's per-call grid allocation.
    #[must_use]
    pub fn run_functional(&self) -> AlignmentOutcome {
        self.run_functional_with(crate::engine::KernelStrategy::Auto)
    }

    /// [`AlignmentRace::run_functional`] on an explicit kernel
    /// traversal order. Both orders produce the identical arrival grid
    /// (property-tested); [`crate::engine::KernelStrategy::Wavefront`]
    /// fills it anti-diagonal by anti-diagonal — the order the hardware
    /// wavefront of Fig. 6 actually evaluates cells in.
    #[must_use]
    pub fn run_functional_with(&self, strategy: crate::engine::KernelStrategy) -> AlignmentOutcome {
        let (n, m) = (self.q.len(), self.p.len());
        let q_codes: Vec<u8> = self.q.codes().collect();
        let p_codes: Vec<u8> = self.p.codes().collect();
        let mut grid = Vec::new();
        let cfg = crate::engine::AlignConfig::new(self.weights).with_strategy(strategy);
        crate::engine::fill_grid(&q_codes, &p_codes, &cfg, &mut grid);
        let arrival = grid.into_iter().map(crate::engine::raw_to_time).collect();
        AlignmentOutcome {
            arrival,
            rows: n,
            cols: m,
            stats: None,
        }
    }

    /// Builds the gate-level Fig. 4 array.
    #[must_use]
    pub fn build_circuit(&self) -> GateLevelAlignment {
        let (n, m) = (self.q.len(), self.p.len());
        let w = self.weights;
        let mut nl = Netlist::new();
        let start = nl.input("race_start");

        // Symbol inputs: one bus per position of each string, so the
        // match comparators appear in the netlist exactly as in the
        // paper's cell (an XNOR pair + AND for DNA's 2-bit codes).
        let bits = S::bits() as usize;
        let q_buses: Vec<Vec<Net>> = (0..n)
            .map(|i| (0..bits).map(|b| nl.input(format!("q{i}b{b}"))).collect())
            .collect();
        let p_buses: Vec<Vec<Net>> = (0..m)
            .map(|j| (0..bits).map(|b| nl.input(format!("p{j}b{b}"))).collect())
            .collect();

        let cols = m + 1;
        let mut cell = vec![start; (n + 1) * cols];
        // Boundary row and column: pure indel delay chains.
        for j in 1..=m {
            cell[j] = nl.delay_chain(cell[j - 1], w.indel);
        }
        for i in 1..=n {
            cell[i * cols] = nl.delay_chain(cell[(i - 1) * cols], w.indel);
        }
        for i in 1..=n {
            for j in 1..=m {
                let up = nl.delay_chain(cell[(i - 1) * cols + j], w.indel);
                let left = nl.delay_chain(cell[i * cols + j - 1], w.indel);
                let matches = stdcells::equality(&mut nl, &q_buses[i - 1], &p_buses[j - 1]);
                let diag_src = cell[(i - 1) * cols + j - 1];
                let diag = match w.mismatched {
                    None => {
                        // Match-only diagonal: delay then gate by `matches`
                        // (the AND of the Fig. 4b unit cell).
                        let delayed = nl.delay_chain(diag_src, w.matched);
                        nl.and(&[matches, delayed])
                    }
                    Some(mw) => {
                        // Two delay chains selected by the comparator.
                        let dm = nl.delay_chain(diag_src, w.matched);
                        let dx = nl.delay_chain(diag_src, mw);
                        nl.mux2(matches, dx, dm)
                    }
                };
                let out = nl.or(&[up, left, diag]);
                nl.name_net(out, format!("cell_{i}_{j}"));
                cell[i * cols + j] = out;
            }
        }
        nl.mark_output(cell[n * cols + m], "score_out");
        GateLevelAlignment {
            netlist: nl,
            start,
            q_buses,
            p_buses,
            cells: cell,
            rows: n,
            cols: m,
            q_codes: self.q.iter().map(|s| s.index() as u64).collect(),
            p_codes: self.p.iter().map(|s| s.index() as u64).collect(),
        }
    }

    /// Worst-case cycle budget for this race: the all-indel path plus one.
    #[must_use]
    pub fn cycle_budget(&self) -> u64 {
        (self.q.len() + self.p.len()) as u64 * self.weights.indel + 1
    }
}

/// The compiled Fig. 4 array, ready for cycle-accurate runs.
#[derive(Debug, Clone)]
pub struct GateLevelAlignment {
    netlist: Netlist,
    start: Net,
    q_buses: Vec<Vec<Net>>,
    p_buses: Vec<Vec<Net>>,
    cells: Vec<Net>,
    rows: usize,
    cols: usize,
    q_codes: Vec<u64>,
    p_codes: Vec<u64>,
}

impl GateLevelAlignment {
    /// The underlying netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Gate counts per cell class (for the area model).
    #[must_use]
    pub fn census(&self) -> Census {
        self.netlist.census()
    }

    /// Runs the race on the event-driven backend
    /// ([`rl_circuit::IncrementalSimulator`]): per-cycle work tracks the
    /// wavefront instead of the whole array — the software twin of the
    /// paper's §4.3 gating argument. Results are identical to
    /// [`GateLevelAlignment::run`] (tested).
    ///
    /// # Errors
    ///
    /// As [`GateLevelAlignment::run`].
    pub fn run_incremental(&self, max_cycles: u64) -> Result<AlignmentOutcome, RaceError> {
        let mut sim = rl_circuit::IncrementalSimulator::new(&self.netlist)?;
        for (bus, code) in self.q_buses.iter().zip(&self.q_codes) {
            for (b, &net) in bus.iter().enumerate() {
                sim.set_input(net, (code >> b) & 1 == 1)?;
            }
        }
        for (bus, code) in self.p_buses.iter().zip(&self.p_codes) {
            for (b, &net) in bus.iter().enumerate() {
                sim.set_input(net, (code >> b) & 1 == 1)?;
            }
        }
        sim.set_input(self.start, true)?;
        let total = self.cells.len();
        let mut arrival = vec![Time::NEVER; total];
        let record =
            |sim: &mut rl_circuit::IncrementalSimulator<'_>, arrival: &mut Vec<Time>, t: u64| {
                for (idx, &net) in self.cells.iter().enumerate() {
                    if arrival[idx].is_never() && sim.value(net) {
                        arrival[idx] = Time::from_cycles(t);
                    }
                }
            };
        record(&mut sim, &mut arrival, 0);
        let out_idx = total - 1;
        let mut t = 0;
        while arrival[out_idx].is_never() {
            if t >= max_cycles {
                return Err(RaceError::RaceTimeout { limit: max_cycles });
            }
            sim.tick()?;
            t += 1;
            record(&mut sim, &mut arrival, t);
        }
        Ok(AlignmentOutcome {
            arrival,
            rows: self.rows,
            cols: self.cols,
            stats: Some(sim.stats()),
        })
    }

    /// Runs the race until the output cell fires.
    ///
    /// # Errors
    ///
    /// Returns [`RaceError::RaceTimeout`] if the output has not risen
    /// within `max_cycles` (cannot happen for budgets ≥
    /// [`AlignmentRace::cycle_budget`], since the all-indel path always
    /// completes), and propagates circuit errors.
    pub fn run(&self, max_cycles: u64) -> Result<AlignmentOutcome, RaceError> {
        let mut sim = CycleSimulator::new(&self.netlist)?;
        // Drive the symbol codes.
        for (bus, code) in self.q_buses.iter().zip(&self.q_codes) {
            for (b, &net) in bus.iter().enumerate() {
                sim.set_input(net, (code >> b) & 1 == 1)?;
            }
        }
        for (bus, code) in self.p_buses.iter().zip(&self.p_codes) {
            for (b, &net) in bus.iter().enumerate() {
                sim.set_input(net, (code >> b) & 1 == 1)?;
            }
        }
        sim.set_input(self.start, true)?;

        let total = self.cells.len();
        let mut arrival = vec![Time::NEVER; total];
        let record = |sim: &mut CycleSimulator<'_>, arrival: &mut Vec<Time>, t: u64| {
            for (idx, &net) in self.cells.iter().enumerate() {
                if arrival[idx].is_never() && sim.value(net) {
                    arrival[idx] = Time::from_cycles(t);
                }
            }
        };
        record(&mut sim, &mut arrival, 0);
        let out_idx = total - 1;
        let mut t = 0;
        while arrival[out_idx].is_never() {
            if t >= max_cycles {
                return Err(RaceError::RaceTimeout { limit: max_cycles });
            }
            sim.tick()?;
            t += 1;
            record(&mut sim, &mut arrival, t);
        }
        Ok(AlignmentOutcome {
            arrival,
            rows: self.rows,
            cols: self.cols,
            stats: Some(sim.stats()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rl_bio::alphabet::Dna;
    use rl_bio::{align, matrix};

    fn dna(s: &str) -> Seq<Dna> {
        s.parse().unwrap()
    }

    fn paper_pair() -> (Seq<Dna>, Seq<Dna>) {
        (dna("GATTCGA"), dna("ACTGAGA")) // (Q, P)
    }

    #[test]
    fn fig4c_functional_table() {
        let (q, p) = paper_pair();
        let out = AlignmentRace::new(&q, &p, RaceWeights::fig4()).run_functional();
        #[rustfmt::skip]
        let expected: [[u64; 8]; 8] = [
            [0, 1, 2, 3, 4, 5, 6, 7],
            [1, 2, 3, 4, 4, 5, 6, 7],
            [2, 2, 3, 4, 5, 5, 6, 7],
            [3, 3, 4, 4, 5, 6, 7, 8],
            [4, 4, 5, 5, 6, 7, 8, 9],
            [5, 5, 5, 6, 7, 8, 9, 10],
            [6, 6, 6, 7, 7, 8, 9, 10],
            [7, 7, 7, 8, 8, 8, 9, 10],
        ];
        for (i, row) in expected.iter().enumerate() {
            for (j, &e) in row.iter().enumerate() {
                assert_eq!(out.arrival(i, j), Time::from_cycles(e), "cell ({i},{j})");
            }
        }
        assert_eq!(out.score(), Time::from_cycles(10));
        assert_eq!(out.latency_cycles(), Some(10));
    }

    #[test]
    fn fig4c_gate_level_matches_functional() {
        let (q, p) = paper_pair();
        let race = AlignmentRace::new(&q, &p, RaceWeights::fig4());
        let functional = race.run_functional();
        let circuit = race.build_circuit();
        let gate = circuit.run(race.cycle_budget()).unwrap();
        for i in 0..=7 {
            for j in 0..=7 {
                assert_eq!(
                    gate.arrival(i, j),
                    functional.arrival(i, j),
                    "cell ({i},{j})"
                );
            }
        }
        assert!(gate.stats.is_some());
    }

    #[test]
    fn incremental_backend_matches_full_backend() {
        let (q, p) = paper_pair();
        let race = AlignmentRace::new(&q, &p, RaceWeights::fig4());
        let circuit = race.build_circuit();
        let full = circuit.run(race.cycle_budget()).unwrap();
        let inc = circuit.run_incremental(race.cycle_budget()).unwrap();
        for i in 0..=7 {
            for j in 0..=7 {
                assert_eq!(inc.arrival(i, j), full.arrival(i, j), "cell ({i},{j})");
            }
        }
        // Toggle statistics are backend-independent.
        assert_eq!(
            full.stats.as_ref().unwrap().net_toggles,
            inc.stats.as_ref().unwrap().net_toggles
        );
    }

    #[test]
    fn render_table_matches_fig4c_first_row() {
        let (q, p) = paper_pair();
        let out = AlignmentRace::new(&q, &p, RaceWeights::fig4()).run_functional();
        let table = out.render_table();
        let first = table.lines().next().unwrap();
        assert_eq!(
            first.split_whitespace().collect::<Vec<_>>(),
            vec!["0", "1", "2", "3", "4", "5", "6", "7"]
        );
    }

    #[test]
    fn best_case_latency_is_n_matches() {
        // Identical strings: the signal rides the diagonal, score = N
        // (match weight 1 per step).
        let s = dna("ACGTACGT");
        let out = AlignmentRace::new(&s, &s, RaceWeights::fig4()).run_functional();
        assert_eq!(out.latency_cycles(), Some(8));
    }

    #[test]
    fn worst_case_latency_is_2n_indels() {
        // Disjoint constant strings: no diagonal ever fires, score = 2N.
        let (q, p) = (dna("AAAAA"), dna("CCCCC"));
        let out = AlignmentRace::new(&q, &p, RaceWeights::fig4()).run_functional();
        assert_eq!(out.latency_cycles(), Some(10));
    }

    #[test]
    fn empty_sequences_score_zero_or_indels() {
        let e = Seq::<Dna>::empty();
        let s = dna("ACG");
        let oe = AlignmentRace::new(&e, &e, RaceWeights::fig4()).run_functional();
        assert_eq!(oe.latency_cycles(), Some(0));
        let os = AlignmentRace::new(&s, &e, RaceWeights::fig4()).run_functional();
        assert_eq!(os.latency_cycles(), Some(3));
    }

    #[test]
    fn mismatch_chain_variant_matches_reference() {
        // With mismatched = Some(2) (unmodified Fig. 2b), gate level must
        // still equal the DP reference.
        let (q, p) = (dna("ACGT"), dna("TGCA"));
        let race = AlignmentRace::new(&q, &p, RaceWeights::fig2b());
        let functional = race.run_functional();
        let gate = race.build_circuit().run(race.cycle_budget()).unwrap();
        assert_eq!(gate.score(), functional.score());
        let reference = align::global_score(&q, &p, &matrix::dna_shortest()).unwrap();
        assert_eq!(functional.score().cycles(), Some(reference as u64));
    }

    #[test]
    #[should_panic(expected = "zero indel weight")]
    fn zero_indel_is_rejected() {
        let s = dna("A");
        let _ = AlignmentRace::new(
            &s,
            &s,
            RaceWeights {
                matched: 1,
                mismatched: None,
                indel: 0,
            },
        );
    }

    #[test]
    fn timeout_is_reported() {
        let (q, p) = paper_pair();
        let race = AlignmentRace::new(&q, &p, RaceWeights::fig4());
        let err = race.build_circuit().run(3).unwrap_err();
        assert!(matches!(err, RaceError::RaceTimeout { limit: 3 }));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Invariant 3 of DESIGN.md: the functional race equals the
        /// Needleman–Wunsch reference under the race matrix.
        #[test]
        #[allow(clippy::needless_range_loop)] // dp and arrival are co-indexed
        fn functional_race_equals_reference(qs in "[ACGT]{0,20}", ps in "[ACGT]{0,20}") {
            let (q, p) = (dna(&qs), dna(&ps));
            let out = AlignmentRace::new(&q, &p, RaceWeights::fig4()).run_functional();
            let dp = align::global_table(&q, &p, &matrix::dna_race());
            for i in 0..=q.len() {
                for j in 0..=p.len() {
                    let expect = dp[i][j].map(|v| Time::from_cycles(v as u64))
                        .unwrap_or(Time::NEVER);
                    prop_assert_eq!(out.arrival(i, j), expect);
                }
            }
        }

        /// Invariant 2 of DESIGN.md: gate level == functional, cell for
        /// cell, on random small strings.
        #[test]
        fn gate_level_equals_functional(qs in "[ACGT]{1,8}", ps in "[ACGT]{1,8}") {
            let (q, p) = (dna(&qs), dna(&ps));
            let race = AlignmentRace::new(&q, &p, RaceWeights::fig4());
            let f = race.run_functional();
            let g = race.build_circuit().run(race.cycle_budget()).unwrap();
            for i in 0..=q.len() {
                for j in 0..=p.len() {
                    prop_assert_eq!(g.arrival(i, j), f.arrival(i, j));
                }
            }
        }

        /// Latency bounds of §4.2: N ≤ score ≤ 2N for equal-length
        /// strings under the Fig. 4 weights.
        #[test]
        fn latency_bounds(qs in "[ACGT]{1,16}") {
            let q = dna(&qs);
            let mut rng = rl_dag::generate::seeded_rng(7);
            let p = Seq::<Dna>::random(&mut rng, q.len());
            let out = AlignmentRace::new(&q, &p, RaceWeights::fig4()).run_functional();
            let n = q.len() as u64;
            let score = out.latency_cycles().unwrap();
            prop_assert!(score >= n && score <= 2 * n);
        }
    }
}
