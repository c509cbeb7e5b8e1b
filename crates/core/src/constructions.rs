//! The paper's adversarial flow collections (Figures 1–4) as reusable,
//! checkable instances.
//!
//! Each constructor returns the topology pair (`C_n` and `MS_n`), the flow
//! collection on both, and the quantities the paper predicts for it —
//! macro-switch rates, optimal throughputs, and (for Theorem 4.3) the
//! certificate routing from Lemma 4.6 whose max-min allocation is
//! lex-max-min fair. Tests and benchmarks measure against these
//! predictions.
//!
//! Indices follow the crate's 0-based convention; the paper is 1-based
//! (`s_1^2` in the paper is `source(0, 1)` here).

use clos_fairness::Allocation;
use clos_net::{expect_server_coords, ClosNetwork, Flow, FlowId, MacroSwitch, NodeKind};
use clos_rational::Rational;

use crate::routed::assignment_routing;
use crate::RoutedAllocation;

/// A flow collection instantiated on both `C_n` and `MS_n`.
///
/// Node identifiers differ between the two topologies, so the collection is
/// materialized twice; position `i` of [`Instance::flows`] and
/// [`Instance::ms_flows`] denote the same logical flow.
#[derive(Clone, Debug)]
pub struct Instance {
    /// The Clos network `C_n`.
    pub clos: ClosNetwork,
    /// The macro-switch abstraction `MS_n`.
    pub ms: MacroSwitch,
    /// The flows on `clos` node identifiers.
    pub flows: Vec<Flow>,
    /// The same flows on `ms` node identifiers.
    pub ms_flows: Vec<Flow>,
}

impl Instance {
    fn from_coords(n: usize, coords: &[(usize, usize, usize, usize)]) -> Instance {
        let clos = ClosNetwork::standard(n);
        let ms = MacroSwitch::standard(n);
        let flows = coords
            .iter()
            .map(|&(si, sj, ti, tj)| Flow::new(clos.source(si, sj), clos.destination(ti, tj)))
            .collect();
        let ms_flows = coords
            .iter()
            .map(|&(si, sj, ti, tj)| Flow::new(ms.source(si, sj), ms.destination(ti, tj)))
            .collect();
        Instance {
            clos,
            ms,
            flows,
            ms_flows,
        }
    }

    /// Computes the (unique) max-min fair allocation in the macro-switch.
    #[must_use]
    pub fn macro_allocation(&self) -> Allocation<Rational> {
        crate::macro_switch::macro_max_min(&self.ms, &self.ms_flows)
    }

    /// Computes the max-min fair allocation in the Clos network for a
    /// middle-switch assignment (one middle index per flow).
    ///
    /// # Panics
    ///
    /// Panics if the assignment length or any middle index is out of range.
    #[must_use]
    pub fn clos_allocation(&self, assignment: &[usize]) -> RoutedAllocation {
        RoutedAllocation::from_assignment(&self.clos, &self.flows, assignment)
    }
}

/// The running example of §2.2 (Figure 1): six flows in `C_2` whose max-min
/// fair allocation depends on the routing.
#[derive(Clone, Debug)]
pub struct Example23 {
    /// Topologies and flows. Flow order: the three type-1 (orange) flows
    /// `(s_1^2, t_1^2)`, `(s_1^2, t_2^1)`, `(s_1^2, t_2^2)`; the two type-2
    /// (blue) flows `(s_2^1, t_2^1)`, `(s_2^2, t_2^2)`; the type-3 (green)
    /// flow `(s_1^1, t_1^1)`.
    pub instance: Instance,
}

impl Example23 {
    /// Flows on the Clos network.
    #[must_use]
    pub fn flows(&self) -> &[Flow] {
        &self.instance.flows
    }

    /// The first routing discussed in the example: the type-1 flow
    /// `(s_1^2, t_2^1)` goes via `M_1` (paper numbering), and the type-3
    /// flow shares its uplink. Sorted rates `[1/3 ×3, 2/3 ×3]`.
    #[must_use]
    pub fn routing_1(&self) -> RoutedAllocation {
        self.instance.clos_allocation(&[1, 0, 1, 1, 0, 0])
    }

    /// The second routing: `(s_1^2, t_2^1)` re-assigned to `M_2`, pushing
    /// the type-2 flow `(s_2^2, t_2^2)` down to `1/3` while the type-3
    /// flow recovers rate 1. Sorted rates `[1/3 ×4, 2/3, 1]`.
    #[must_use]
    pub fn routing_2(&self) -> RoutedAllocation {
        self.instance.clos_allocation(&[1, 1, 1, 0, 1, 0])
    }
}

/// Builds the flow collection of Example 2.3 / Figure 1 on `C_2`.
///
/// # Examples
///
/// ```
/// use clos_core::constructions::example_2_3;
/// use clos_rational::Rational;
///
/// let ex = example_2_3();
/// let ms = ex.instance.macro_allocation();
/// assert_eq!(ms.sorted().rates().last(), Some(&Rational::ONE));
/// assert!(ex.routing_1().allocation.sorted() > ex.routing_2().allocation.sorted());
/// ```
#[must_use]
pub fn example_2_3() -> Example23 {
    let coords = [
        (0, 1, 0, 1), // type 1: s_1^2 -> t_1^2
        (0, 1, 1, 0), // type 1: s_1^2 -> t_2^1
        (0, 1, 1, 1), // type 1: s_1^2 -> t_2^2
        (1, 0, 1, 0), // type 2: s_2^1 -> t_2^1
        (1, 1, 1, 1), // type 2: s_2^2 -> t_2^2
        (0, 0, 0, 0), // type 3: s_1^1 -> t_1^1
    ];
    Example23 {
        instance: Instance::from_coords(2, &coords),
    }
}

/// The adversarial macro-switch collection of Theorem 3.4 (Figure 2,
/// generalized from Example 3.3): two type-1 flows on disjoint pairs plus
/// `k` parasitic type-2 flows crossing them.
#[derive(Clone, Debug)]
pub struct Theorem34 {
    /// The macro-switch `MS_n` the flows live in.
    pub ms: MacroSwitch,
    /// All flows: positions 0 and 1 are type 1, the remaining `k` type 2.
    pub flows: Vec<Flow>,
    /// The parasitic multiplicity `k ≥ 1`.
    pub k: usize,
}

impl Theorem34 {
    /// The two type-1 flows.
    #[must_use]
    pub fn type1(&self) -> [FlowId; 2] {
        [FlowId::new(0), FlowId::new(1)]
    }

    /// The `k` type-2 flows.
    #[must_use]
    pub fn type2(&self) -> Vec<FlowId> {
        (2..self.flows.len()).map(FlowId::from).collect()
    }

    /// `T^MT = 2`: both type-1 flows accepted at rate 1.
    #[must_use]
    pub fn expected_max_throughput(&self) -> Rational {
        Rational::TWO
    }

    /// `T^MmF = 1 + 1/(k+1)`: under max-min fairness every flow gets
    /// `1/(k+1)`.
    #[must_use]
    pub fn expected_max_min_throughput(&self) -> Rational {
        Rational::ONE + Rational::new(1, (self.k + 1) as i128)
    }
}

/// Builds the Theorem 3.4 adversarial collection in `MS_n` with `k` type-2
/// flows.
///
/// As `k → ∞` the max-min fair throughput approaches `½ T^MT`, showing the
/// factor-½ price of fairness is tight.
///
/// # Panics
///
/// Panics if `n == 0` or `k == 0`.
///
/// # Examples
///
/// ```
/// use clos_core::constructions::theorem_3_4;
/// use clos_core::macro_switch::price_of_fairness;
/// use clos_rational::Rational;
///
/// let t = theorem_3_4(1, 9);
/// let pof = price_of_fairness(&t.ms, &t.flows);
/// assert_eq!(pof.t_max_throughput, Rational::TWO);
/// assert_eq!(pof.t_max_min, Rational::new(11, 10)); // 1 + 1/10
/// ```
#[must_use]
pub fn theorem_3_4(n: usize, k: usize) -> Theorem34 {
    assert!(k >= 1, "need at least one type-2 flow");
    let ms = MacroSwitch::standard(n);
    let mut flows = vec![
        Flow::new(ms.source(0, 0), ms.destination(0, 0)),
        Flow::new(ms.source(1, 0), ms.destination(1, 0)),
    ];
    for _ in 0..k {
        flows.push(Flow::new(ms.source(1, 0), ms.destination(0, 0)));
    }
    Theorem34 { ms, flows, k }
}

/// Flow-type labels of the Theorem 4.2 / 4.3 construction (Figure 3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlowType {
    /// `(s_i^j, t_i^j)` for `i ∈ [n]`, `j ∈ [2, n]` (orange).
    Type1,
    /// `(s_i^1, t_i^1)` for `i ∈ [n]` (blue).
    Type2a,
    /// `(s_i^1, t_{n+1}^j)` for `i ∈ [n]`, `j ∈ [n−1]` (blue).
    Type2b,
    /// `(s_{n+1}^n, t_{n+1}^n)` (green).
    Type3,
}

/// The adversarial collection of Theorems 4.2 and 4.3 (Figure 3) on `C_n`.
///
/// With `copies = 1` this is Theorem 4.2's collection (macro-switch rates
/// cannot be replicated at all); with `copies = n + 1` it is Theorem 4.3's
/// (the lex-max-min fair allocation starves the type-3 flow by a factor of
/// `1/n`).
#[derive(Clone, Debug)]
pub struct Theorem43 {
    /// Topologies and flows.
    pub instance: Instance,
    /// The network size `n ≥ 3`.
    pub n: usize,
    /// Number of parallel copies of each type-1 flow.
    pub copies: usize,
    types: Vec<FlowType>,
}

impl Theorem43 {
    /// Returns the type of each flow, in flow order.
    #[must_use]
    pub fn types(&self) -> &[FlowType] {
        &self.types
    }

    /// Returns the flows of a given type.
    #[must_use]
    pub fn flows_of_type(&self, ty: FlowType) -> Vec<FlowId> {
        self.types
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t == ty)
            .map(|(i, _)| FlowId::from(i))
            .collect()
    }

    /// The unique type-3 flow `(s_{n+1}^n, t_{n+1}^n)`.
    ///
    /// # Panics
    ///
    /// Never panics; the construction always contains exactly one.
    #[must_use]
    pub fn type3_flow(&self) -> FlowId {
        self.flows_of_type(FlowType::Type3)[0]
    }

    /// The macro-switch rate each flow type receives (Lemma 4.4, which for
    /// `copies = 1` specializes to Example 4.1's rates).
    #[must_use]
    pub fn expected_macro_rate(&self, ty: FlowType) -> Rational {
        match ty {
            FlowType::Type1 => Rational::new(1, self.copies as i128),
            FlowType::Type2a | FlowType::Type2b => Rational::new(1, self.n as i128),
            FlowType::Type3 => Rational::ONE,
        }
    }

    /// The lex-max-min fair rate of each flow type in `C_n` (Lemma 4.6,
    /// for the Theorem 4.3 parameterization `copies = n + 1`).
    #[must_use]
    pub fn expected_lex_rate(&self, ty: FlowType) -> Rational {
        match ty {
            FlowType::Type1 => Rational::new(1, self.copies as i128),
            FlowType::Type2a | FlowType::Type2b | FlowType::Type3 => {
                Rational::new(1, self.n as i128)
            }
        }
    }

    /// The certificate middle-switch assignment of Lemma 4.6 (Step 1),
    /// one middle per flow, whose max-min fair allocation the paper
    /// proves lex-max-min fair:
    ///
    /// * type-1 flows `(s_i^j, t_i^j)` go via `M_{((i−1)+(j−1)) mod n}`
    ///   (0-based; the paper's `M_{k+1}`, `k = i + j − 2 (mod n)`);
    /// * type-2 flows leaving `I_i` all go via `M_i`;
    /// * the type-3 flow goes via `M_n` (0-based `n − 1`).
    #[must_use]
    pub fn certificate_assignment(&self) -> Vec<usize> {
        let clos = &self.instance.clos;
        self.instance
            .flows
            .iter()
            .zip(&self.types)
            .map(|(&f, &ty)| match ty {
                FlowType::Type1 => {
                    let (i, j) = expect_server_coords(
                        f.src(),
                        NodeKind::Source,
                        clos.source_coords(f.src()),
                    );
                    (i + j) % self.n
                }
                FlowType::Type2a | FlowType::Type2b => clos.src_tor(f),
                FlowType::Type3 => self.n - 1,
            })
            .collect()
    }

    /// The certificate routing with its max-min fair allocation — by
    /// Lemma 4.6, a lex-max-min fair allocation of the instance.
    #[must_use]
    pub fn certificate(&self) -> RoutedAllocation {
        // The assignment is dropped before the water-fill: at n = 32 its
        // ~270 KB would sit on top of the water-fill's peak memory.
        let (clos, flows) = (&self.instance.clos, &self.instance.flows);
        let routing = assignment_routing(clos, flows, &self.certificate_assignment());
        RoutedAllocation::new(clos, flows, routing)
    }
}

/// Builds the Theorem 4.2 collection on `C_n` (one copy of each type-1
/// flow): the macro-switch max-min rates admit **no** feasible routing.
///
/// # Panics
///
/// Panics if `n < 3`.
#[must_use]
pub fn theorem_4_2(n: usize) -> Theorem43 {
    theorem_4_3_with_copies(n, 1)
}

/// A machine-checked certificate that the macro-switch rates of the
/// Figure 3 collection admit no feasible routing in `C_n`
/// (Theorem 4.2 / Claim 4.5), verified by exact arithmetic for the
/// instance's actual `n` rather than by exhaustive search.
///
/// The certificate records the three facts whose conjunction forbids a
/// routing; each is *checked*, not assumed, by
/// [`Theorem43::certify_infeasibility`]:
///
/// 1. **Integrality (Claim 4.5):** every uplink of an input ToR in `[n]`
///    must be exactly full, and the only integer mixes of type-1/type-2
///    flows achieving that are "all type-2 together" or "type-1 only" —
///    so each ToR sends all its type-2 flows through one middle switch.
/// 2. **Pigeonhole:** two ToRs sharing that middle switch would overload
///    the downlink to `O_{n+1}`, so the type-2 bundles occupy all `n`
///    middle switches, one each.
/// 3. **Starvation:** every downlink into `O_{n+1}` then has residual
///    exactly `1/n`, strictly less than the type-3 flow's rate of 1.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InfeasibilityCertificate {
    /// The network size the certificate applies to.
    pub n: usize,
    /// The admissible per-uplink (type-1 count, type-2 count) mixes found
    /// by the integrality check — exactly two for a valid certificate.
    pub uplink_mixes: Vec<(usize, usize)>,
    /// Load placed on a `M_m → O_{n+1}` downlink by one ToR's type-2
    /// bundle (`(n−1)/n`).
    pub bundle_load: Rational,
    /// Residual capacity left for the type-3 flow on every such downlink
    /// (`1/n`), strictly below its required rate 1.
    pub type3_residual: Rational,
}

impl Theorem43 {
    /// Certifies that this instance's macro-switch rates cannot be routed
    /// in `C_n`, by checking the Theorem 4.2 / Claim 4.5 argument with
    /// exact arithmetic (no search).
    ///
    /// Applies to any `copies` parameterization whose type-1 rate is
    /// `1/copies`: the paper's Theorem 4.2 is `copies = 1` and the rate
    /// pattern of Theorem 4.3 (`copies = n + 1`) satisfies the same
    /// argument.
    ///
    /// # Errors
    ///
    /// Returns a description of the first failed check — which would mean
    /// the argument does not apply to this instance (it always does for
    /// the constructions produced by this module).
    pub fn certify_infeasibility(&self) -> Result<InfeasibilityCertificate, String> {
        let n = self.n;
        let r1 = self.expected_macro_rate(FlowType::Type1); // 1/copies
        let r2 = self.expected_macro_rate(FlowType::Type2a); // 1/n
        let c1 = (n - 1) * self.copies; // type-1 flows per input ToR in [n]
        let c2 = n; // type-2 flows per input ToR in [n]

        // Check 0: the per-ToR totals saturate all n uplinks exactly.
        let total =
            r1 * Rational::from_integer(c1 as i128) + r2 * Rational::from_integer(c2 as i128);
        if total != Rational::from_integer(n as i128) {
            return Err(format!(
                "per-ToR offered load {total} does not saturate the {n} uplinks"
            ));
        }

        // Check 1 (Claim 4.5): enumerate integer mixes (x type-1, y
        // type-2) with x·r1 + y·r2 = 1. A valid certificate needs every
        // solution to have y = 0 or y = n (type-2 flows are inseparable).
        let mut mixes = Vec::new();
        for x in 0..=c1.min(n * self.copies) {
            for y in 0..=c2 {
                let load =
                    r1 * Rational::from_integer(x as i128) + r2 * Rational::from_integer(y as i128);
                if load == Rational::ONE {
                    mixes.push((x, y));
                }
            }
        }
        if !mixes.iter().all(|&(_, y)| y == 0 || y == c2) {
            return Err(format!(
                "uplink mixes {mixes:?} allow splitting a type-2 bundle"
            ));
        }
        if !mixes.iter().any(|&(_, y)| y == c2) {
            return Err("no admissible uplink carries the type-2 bundle".to_string());
        }

        // Check 2 (pigeonhole): two bundles on one middle overload the
        // downlink to O_{n+1}: each bundle puts (n−1) type-2b flows of
        // rate 1/n on it.
        let bundle_load = r2 * Rational::from_integer((n - 1) as i128);
        if bundle_load * Rational::TWO <= Rational::ONE {
            return Err("two type-2 bundles would fit one downlink".to_string());
        }

        // Check 3: with the forced bijection, the residual on every
        // downlink into O_{n+1} is below the type-3 rate.
        let residual = Rational::ONE - bundle_load;
        let type3 = self.expected_macro_rate(FlowType::Type3);
        if residual >= type3 {
            return Err(format!(
                "type-3 flow (rate {type3}) fits the residual {residual}"
            ));
        }

        Ok(InfeasibilityCertificate {
            n,
            uplink_mixes: mixes,
            bundle_load,
            type3_residual: residual,
        })
    }
}

/// Builds the Theorem 4.3 collection on `C_n` (`n + 1` copies of each
/// type-1 flow): the lex-max-min fair allocation starves the type-3 flow
/// to `1/n` of its macro-switch rate.
///
/// # Panics
///
/// Panics if `n < 3`.
///
/// # Examples
///
/// ```
/// use clos_core::constructions::theorem_4_3;
/// use clos_rational::Rational;
///
/// let t = theorem_4_3(3);
/// let lex = t.certificate();
/// // Macro-switch rate 1, lex-max-min rate 1/n.
/// assert_eq!(lex.allocation.rate(t.type3_flow()), Rational::new(1, 3));
/// ```
#[must_use]
pub fn theorem_4_3(n: usize) -> Theorem43 {
    theorem_4_3_with_copies(n, n + 1)
}

/// Builds the Figure 3 collection with an explicit number of copies of
/// each type-1 flow (1 for Theorem 4.2, `n + 1` for Theorem 4.3).
///
/// # Panics
///
/// Panics if `n < 3` or `copies == 0`.
#[must_use]
pub fn theorem_4_3_with_copies(n: usize, copies: usize) -> Theorem43 {
    assert!(n >= 3, "the construction requires n >= 3");
    assert!(copies >= 1, "need at least one copy of each type-1 flow");
    // Type 1, type 2.a, type 2.b, and the one type-3 flow.
    let total = n * (n - 1) * copies + n + n * (n - 1) + 1;
    let mut coords = Vec::with_capacity(total);
    let mut types = Vec::with_capacity(total);
    // Type 1: copies × (s_i^j, t_i^j), i ∈ [n], j ∈ [2, n] (0-based hosts 1..n).
    for i in 0..n {
        for j in 1..n {
            for _ in 0..copies {
                coords.push((i, j, i, j));
                types.push(FlowType::Type1);
            }
        }
    }
    // Type 2.a: (s_i^1, t_i^1), i ∈ [n].
    for i in 0..n {
        coords.push((i, 0, i, 0));
        types.push(FlowType::Type2a);
    }
    // Type 2.b: (s_i^1, t_{n+1}^j), i ∈ [n], j ∈ [n−1] (ToR n, hosts 0..n−1).
    for i in 0..n {
        for j in 0..n - 1 {
            coords.push((i, 0, n, j));
            types.push(FlowType::Type2b);
        }
    }
    // Type 3: (s_{n+1}^n, t_{n+1}^n).
    coords.push((n, n - 1, n, n - 1));
    types.push(FlowType::Type3);

    Theorem43 {
        instance: Instance::from_coords(n, &coords),
        n,
        copies,
        types,
    }
}

/// The adversarial collection of Theorem 5.4 (Figure 4, generalizing
/// Example 5.3) on `C_n`: `(n−1)/2` stacked copies of the Figure 2 gadget,
/// each with `k` parasitic type-2 flows, all under a single ToR pair.
#[derive(Clone, Debug)]
pub struct Theorem54 {
    /// Topologies and flows.
    pub instance: Instance,
    /// The (odd) network size `n ≥ 3`.
    pub n: usize,
    /// Parasitic multiplicity per gadget.
    pub k: usize,
    types1: Vec<FlowId>,
    types2: Vec<FlowId>,
}

impl Theorem54 {
    /// The `n − 1` type-1 flows.
    #[must_use]
    pub fn type1(&self) -> &[FlowId] {
        &self.types1
    }

    /// The `(n−1)/2 · k` type-2 flows.
    #[must_use]
    pub fn type2(&self) -> &[FlowId] {
        &self.types2
    }

    /// `T^MmF` in the macro-switch: every flow gets `1/(k+1)`, so
    /// `T^MmF = (n−1)/2 · (1 + 1/(k+1))`.
    #[must_use]
    pub fn expected_macro_throughput(&self) -> Rational {
        Rational::new((self.n - 1) as i128, 2)
            * (Rational::ONE + Rational::new(1, (self.k + 1) as i128))
    }

    /// The paper's lower bound `T^T-MmF ≥ n − 2`, achieved by the
    /// Doom-Switch routing.
    #[must_use]
    pub fn expected_doom_throughput_lower(&self) -> Rational {
        Rational::from_integer((self.n - 2) as i128)
    }
}

/// Builds the Theorem 5.4 collection on `C_n` for odd `n ≥ 3`.
///
/// Gadget `g` (for `g ∈ [0, (n−1)/2)`) occupies hosts `2g` and `2g + 1` of
/// ToR pair 0: type-1 flows `(s_0^{2g}, t_0^{2g})` and
/// `(s_0^{2g+1}, t_0^{2g+1})`, plus `k` type-2 flows
/// `(s_0^{2g+1}, t_0^{2g})`.
///
/// # Panics
///
/// Panics if `n < 3`, `n` is even, or `k == 0`.
///
/// # Examples
///
/// ```
/// use clos_core::constructions::theorem_5_4;
/// use clos_rational::Rational;
///
/// let t = theorem_5_4(7, 1); // Example 5.3
/// assert_eq!(t.expected_macro_throughput(), Rational::new(9, 2));
/// assert_eq!(t.expected_doom_throughput_lower(), Rational::from_integer(5));
/// ```
#[must_use]
pub fn theorem_5_4(n: usize, k: usize) -> Theorem54 {
    assert!(n >= 3, "the construction requires n >= 3");
    assert!(n % 2 == 1, "the construction requires odd n");
    assert!(k >= 1, "need at least one type-2 flow per gadget");
    let mut coords = Vec::new();
    let mut types1 = Vec::new();
    let mut types2 = Vec::new();
    for g in 0..(n - 1) / 2 {
        let lo = 2 * g;
        let hi = 2 * g + 1;
        types1.push(FlowId::from(coords.len()));
        coords.push((0, lo, 0, lo));
        types1.push(FlowId::from(coords.len()));
        coords.push((0, hi, 0, hi));
        for _ in 0..k {
            types2.push(FlowId::from(coords.len()));
            coords.push((0, hi, 0, lo));
        }
    }
    Theorem54 {
        instance: Instance::from_coords(n, &coords),
        n,
        k,
        types1,
        types2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn example_2_3_reproduces_figure_1() {
        let ex = example_2_3();
        let ms = ex.instance.macro_allocation();
        assert_eq!(
            ms.sorted().rates(),
            &[r(1, 3), r(1, 3), r(1, 3), r(2, 3), r(2, 3), Rational::ONE]
        );
        let r1 = ex.routing_1();
        assert_eq!(
            r1.allocation.sorted().rates(),
            &[r(1, 3), r(1, 3), r(1, 3), r(2, 3), r(2, 3), r(2, 3)]
        );
        let r2 = ex.routing_2();
        assert_eq!(
            r2.allocation.sorted().rates(),
            &[r(1, 3), r(1, 3), r(1, 3), r(1, 3), r(2, 3), Rational::ONE]
        );
        assert!(ms.sorted() > r1.allocation.sorted());
        assert!(r1.allocation.sorted() > r2.allocation.sorted());
    }

    #[test]
    fn theorem_3_4_rates_and_throughputs() {
        for k in [1, 2, 5, 32] {
            let t = theorem_3_4(1, k);
            let a = crate::macro_switch::macro_max_min(&t.ms, &t.flows);
            // Every flow gets 1/(k+1).
            assert!(a.rates().iter().all(|&x| x == r(1, (k + 1) as i128)));
            assert_eq!(a.throughput(), t.expected_max_min_throughput());
            let mt = crate::macro_switch::max_throughput(&t.ms, &t.flows);
            assert_eq!(mt.throughput(), t.expected_max_throughput());
        }
    }

    #[test]
    fn theorem_3_4_embeds_in_larger_macro_switches() {
        let t = theorem_3_4(4, 3);
        let a = crate::macro_switch::macro_max_min(&t.ms, &t.flows);
        assert!(a.rates().iter().all(|&x| x == r(1, 4)));
        assert_eq!(
            crate::macro_switch::max_throughput(&t.ms, &t.flows).throughput(),
            Rational::TWO
        );
    }

    #[test]
    fn theorem_4_2_macro_rates_match_example_4_1() {
        let t = theorem_4_2(3);
        let a = t.instance.macro_allocation();
        for (i, ty) in t.types().iter().enumerate() {
            assert_eq!(
                a.rate(FlowId::from(i)),
                t.expected_macro_rate(*ty),
                "flow {i} of type {ty:?}"
            );
        }
        // Counts: n(n−1) type 1, n type 2a, n(n−1) type 2b, 1 type 3.
        assert_eq!(t.flows_of_type(FlowType::Type1).len(), 6);
        assert_eq!(t.flows_of_type(FlowType::Type2a).len(), 3);
        assert_eq!(t.flows_of_type(FlowType::Type2b).len(), 6);
        assert_eq!(t.flows_of_type(FlowType::Type3).len(), 1);
    }

    #[test]
    fn theorem_4_3_macro_rates_match_lemma_4_4() {
        for n in [3, 4, 5] {
            let t = theorem_4_3(n);
            let a = t.instance.macro_allocation();
            for (i, ty) in t.types().iter().enumerate() {
                assert_eq!(a.rate(FlowId::from(i)), t.expected_macro_rate(*ty));
            }
            assert_eq!(a.rate(t.type3_flow()), Rational::ONE);
        }
    }

    #[test]
    fn theorem_4_3_certificate_matches_lemma_4_6() {
        for n in [3, 4, 5, 8] {
            let t = theorem_4_3(n);
            let cert = t.certificate();
            assert!(cert
                .routing
                .validate(t.instance.clos.network(), &t.instance.flows)
                .is_ok());
            for (i, ty) in t.types().iter().enumerate() {
                assert_eq!(
                    cert.allocation.rate(FlowId::from(i)),
                    t.expected_lex_rate(*ty),
                    "n={n}, flow {i} of type {ty:?}"
                );
            }
            // The headline: type-3 drops from 1 to 1/n.
            assert_eq!(cert.allocation.rate(t.type3_flow()), r(1, n as i128));
        }
    }

    #[test]
    fn theorem_4_3_certificate_is_max_min_fair() {
        let t = theorem_4_3(3);
        let cert = t.certificate();
        assert!(clos_fairness::verify_bottleneck_property(
            t.instance.clos.network(),
            &t.instance.flows,
            &cert.routing,
            &cert.allocation,
            Rational::ZERO
        )
        .is_ok());
    }

    #[test]
    fn theorem_5_4_macro_throughput() {
        for (n, k) in [(3, 1), (5, 2), (7, 1), (9, 4)] {
            let t = theorem_5_4(n, k);
            let a = t.instance.macro_allocation();
            assert!(a.rates().iter().all(|&x| x == r(1, (k + 1) as i128)));
            assert_eq!(a.throughput(), t.expected_macro_throughput());
            assert_eq!(t.type1().len(), n - 1);
            assert_eq!(t.type2().len(), (n - 1) / 2 * k);
        }
    }

    #[test]
    #[should_panic(expected = "requires odd n")]
    fn theorem_5_4_rejects_even_n() {
        let _ = theorem_5_4(4, 1);
    }

    #[test]
    #[should_panic(expected = "requires n >= 3")]
    fn theorem_4_3_rejects_small_n() {
        let _ = theorem_4_3(2);
    }

    #[test]
    fn infeasibility_certificate_checks_for_many_n() {
        for n in [3usize, 4, 5, 8, 16, 64] {
            // Theorem 4.2 parameterization.
            let cert = theorem_4_2(n).certify_infeasibility().expect("certifies");
            assert_eq!(cert.n, n);
            assert_eq!(cert.uplink_mixes, vec![(0, n), (1, 0)]);
            assert_eq!(cert.bundle_load, r((n - 1) as i128, n as i128));
            assert_eq!(cert.type3_residual, r(1, n as i128));
            // Theorem 4.3 parameterization (rates 1/(n+1) and 1/n).
            let cert = theorem_4_3(n).certify_infeasibility().expect("certifies");
            assert_eq!(cert.uplink_mixes, vec![(0, n), (n + 1, 0)]);
        }
    }

    #[test]
    fn certificate_agrees_with_exhaustive_search_at_n_3() {
        // The certificate and the backtracking search must agree.
        let t = theorem_4_2(3);
        assert!(t.certify_infeasibility().is_ok());
        let rates = t.instance.macro_allocation();
        assert!(crate::replication::find_feasible_routing(
            &t.instance.clos,
            &t.instance.flows,
            rates.rates()
        )
        .is_none());
    }

    #[test]
    fn instance_flow_translation_is_consistent() {
        let t = theorem_4_2(3);
        assert_eq!(t.instance.flows.len(), t.instance.ms_flows.len());
        for (cf, mf) in t.instance.flows.iter().zip(&t.instance.ms_flows) {
            assert_eq!(
                t.instance.clos.source_coords(cf.src()),
                t.instance.ms.source_coords(mf.src())
            );
            assert_eq!(
                t.instance.clos.destination_coords(cf.dst()),
                t.instance.ms.destination_coords(mf.dst())
            );
        }
    }
}
