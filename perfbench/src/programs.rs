//! The J&s sources the workloads run, each with the output it must print.
//!
//! Every generated source is a function of the seed alone; the measured
//! program only ever sees the finished text.

use jns_core::{lambda, service};

#[path = "../../tests/corpus/mod.rs"]
mod corpus;

/// A small deterministic generator (SplitMix64), so one seed gives the
/// same inputs on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// True with probability `pct` percent.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.next_u64() % 100 < pct
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }

    /// A lower-case word of `len` letters.
    pub fn word(&mut self, len: usize) -> String {
        (0..len)
            .map(|_| (b'a' + (self.next_u64() % 26) as u8) as char)
            .collect()
    }
}

/// One program of a workload, with the lines it must print when the
/// expected output is known independently of the engines under test.
#[derive(Debug, Clone)]
pub struct Program {
    pub name: String,
    pub src: String,
    pub expected: Option<Vec<String>>,
}

fn lines(v: &[&str]) -> Option<Vec<String>> {
    Some(v.iter().map(|s| s.to_string()).collect())
}

// ---------------------------------------------------------------- evolve

/// Loop iterations on each side of `srv.evolve()`; two packets each.
pub const EVOLVE_ITERS: u32 = 2_000;

/// The §2.4 flagship: dispatch, evolve the live dispatcher with one view
/// change, dispatch again through the evolved family. Prints the handled
/// count, which must be `2 * EVOLVE_ITERS`.
pub fn evolve(rng: &mut Rng) -> Program {
    let (a, b) = (rng.word(4), rng.word(4));
    let n = EVOLVE_ITERS;
    let main = format!(
        r#"
        final service!.SomeService s = new service.SomeService();
        final service!.EchoService e = new service.EchoService();
        final service!.Dispatcher d = new service.Dispatcher {{ s = s, e = e }};
        final Server srv = new Server {{ disp = d }};
        final service!.Packet p0 = new service.Packet {{ kind = 0, payload = "{a}" }};
        final service!.Packet p1 = new service.Packet {{ kind = 1, payload = "{b}" }};
        while (s.handled < {n}) {{
          final str r0 = d.dispatch(p0);
          final str r1 = d.dispatch(p1);
        }}
        srv.evolve();
        final logService!.Dispatcher d2 = (cast logService!.Dispatcher)srv.disp;
        final logService!.Packet q0 = (view logService!.Packet)p0;
        final logService!.Packet q1 = (view logService!.Packet)p1;
        while (s.handled < {n} * 2) {{
          final str r2 = d2.dispatch(q0);
          final str r3 = d2.dispatch(q1);
        }}
        print s.handled;"#
    );
    Program {
        name: "evolve".into(),
        src: service::program(&main),
        expected: Some(vec![(2 * n).to_string()]),
    }
}

// ------------------------------------------------------- translate_serve

/// Holder classes for the request's result history: the `Log` object is
/// allocated first, so it is tenured by the first minor collection, and
/// every later `log.head = new Cons {..}` stores a nursery object into it.
const HISTORY: &str = r#"
class hist {
  class Nil { }
  class Cons extends Nil { str line; Nil next; }
  class Log { Nil head = new Nil(); int n = 0; }
}
"#;

/// Distinct λ-terms per round of a request.
pub const TERMS_PER_ROUND: usize = 12;
/// Rounds per request; each round rebuilds and translates every term.
pub const ROUNDS: u32 = 4;
/// Node budget of one generated term.
pub const TERM_NODES: u32 = 14;

/// Seed of the term and chain *shapes*. The run's seed only renames,
/// renumbers and reorders, so every seed gives the same amount of work
/// and the spread across seeds is the spread of the system, not of the
/// inputs.
const SHAPE_SEED: u64 = 0x5EA5_0FF0_0D00;

/// A `sumpair` term of about `budget` nodes: pure λ nodes (kept in place
/// by the translation) mixed with pair and sum nodes (rebuilt). `shape`
/// makes every structural choice; `names` only spells the variables.
fn term(shape: &mut Rng, names: &mut Rng, budget: u32, vars: &mut Vec<String>) -> String {
    if budget <= 1 || (vars.len() > 6 && shape.chance(30)) {
        let x = if vars.is_empty() || shape.chance(20) {
            let len = shape.range(1, 6) as usize;
            names.word(len)
        } else {
            vars[shape.next_u64() as usize % vars.len()].clone()
        };
        return format!("new sumpair.Var {{ x = \"{x}\" }}");
    }
    let rest = budget - 1;
    let split = |rng: &mut Rng, n: u32| -> u32 {
        if n <= 1 {
            n
        } else {
            rng.range(1, n as i64 - 1) as u32
        }
    };
    match shape.next_u64() % 9 {
        0 | 1 => {
            let len = shape.range(1, 6) as usize;
            let x = names.word(len);
            vars.push(x.clone());
            let e = term(shape, names, rest, vars);
            vars.pop();
            format!("new sumpair.Abs {{ x = \"{x}\", e = {e} }}")
        }
        2 | 3 => {
            let l = split(shape, rest);
            let f = term(shape, names, l, vars);
            let a = term(shape, names, rest - l, vars);
            format!("new sumpair.App {{ f = {f}, a = {a} }}")
        }
        4 => {
            let l = split(shape, rest);
            let a = term(shape, names, l, vars);
            let b = term(shape, names, rest - l, vars);
            format!("new sumpair.Pair {{ fst = {a}, snd = {b} }}")
        }
        5 => {
            let sel = if shape.chance(50) { "Fst" } else { "Snd" };
            let p = term(shape, names, rest, vars);
            format!("new sumpair.{sel} {{ p = {p} }}")
        }
        6 | 7 => {
            let inj = if shape.chance(50) { "Inj1" } else { "Inj2" };
            let e = term(shape, names, rest, vars);
            format!("new sumpair.{inj} {{ e = {e} }}")
        }
        _ => {
            let a = rest / 3;
            let s = term(shape, names, a.max(1), vars);
            let l = term(shape, names, a.max(1), vars);
            let r = term(shape, names, rest.saturating_sub(2 * a).max(1), vars);
            format!("new sumpair.Case {{ scrut = {s}, onl = {l}, onr = {r} }}")
        }
    }
}

/// The §7.3 λ-compiler as one served request: `ROUNDS` rounds, each
/// building and translating `TERMS_PER_ROUND` seeded terms (garbage after
/// their translation) and appending every result to a growing history on
/// a long-lived holder. The last round prints the translated terms.
pub fn translate_request(rng: &mut Rng) -> Program {
    let mut shape = Rng::new(SHAPE_SEED);
    let mut terms: Vec<String> = (0..TERMS_PER_ROUND)
        .map(|_| term(&mut shape, rng, TERM_NODES, &mut Vec::new()))
        .collect();
    rng.shuffle(&mut terms);
    let mut body = String::new();
    for (i, t) in terms.iter().enumerate() {
        body.push_str(&format!(
            "
          final sumpair!.Exp t{i} = {t};
          final base!.Exp o{i} = t{i}.translate(tr);
          final str s{i} = o{i}.show();
          log.head = new hist.Cons {{ line = s{i}, next = log.head }};
          if (log.n == {last}) {{ print s{i}; }}",
            last = ROUNDS - 1
        ));
    }
    let main = format!(
        "
        final hist!.Log log = new hist.Log();
        final sumpair!.Translator tr = new sumpair.Translator();
        while (log.n < {ROUNDS}) {{{body}
          log.n = log.n + 1;
        }}
        print tr.rebuilt;
        print tr.reusedAbs;
        print tr.reusedApp;"
    );
    Program {
        name: "translate_request".into(),
        src: format!("{}{HISTORY}\nmain {{\n{main}\n}}", lambda::families()),
        expected: None,
    }
}

// --------------------------------------------------------------- cold_run

/// The paper programs of the shared test corpus, with the outputs the
/// paper (and the hand-written tests) give for them.
fn paper_programs() -> Vec<Program> {
    let expected: &[(&str, &[&str])] = &[
        ("figure3_family_adaptation", &["(value:x value:y)"]),
        ("view_change_preserves_identity", &["true"]),
        (
            "figure4_dynamic_evolution",
            &["basic", "[log] logged", "basic"],
        ),
        ("figure5_new_field_masking", &["42", "true"]),
        ("duplicated_fields_are_per_family", &["1", "1"]),
        ("config_invariant_program", &["true"]),
        ("implicit_view_changes_are_lazy", &["2", "2"]),
        ("primitives_end_to_end", &["42", "xy", "1", "true"]),
        ("loops_compute", &["10"]),
        ("figure2_nested_inheritance", &["[v]", "[(vv)]"]),
        ("view_change_is_not_a_cast", &["b", "true"]),
        ("severed_sharing_fixed_by_override", &["1"]),
        ("figure5_unshared_state", &["10", "5", "true"]),
        ("sharing_is_transitive", &["right", "true"]),
        ("adaptation_is_bidirectional", &["plain", "logged"]),
    ];
    corpus::PAPER_EXAMPLES
        .iter()
        .chain(corpus::PAPER_FIGURES)
        .map(|(name, src)| {
            let want = expected
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, out)| *out)
                .unwrap_or_else(|| panic!("no expected output for corpus program {name}"));
            Program {
                name: (*name).into(),
                src: (*src).into(),
                expected: lines(want),
            }
        })
        .collect()
}

/// The two flagship programs with small mains (three λ-compiler
/// translations, two service runs), outputs as the paper gives them.
fn flagship_programs() -> Vec<Program> {
    let lambda_mains: [(&str, &str, &[&str]); 3] = [
        (
            "lambda_pure_term",
            "final pair!.Exp id = new pair.Abs { x = \"z\", e = new pair.Var { x = \"z\" } };
             final pair!.Translator t = new pair.Translator();
             final base!.Exp b = id.translate(t);
             print b.show();
             print id == b;
             print t.reusedAbs;
             print t.rebuilt;",
            &["(fn z. z)", "true", "1", "0"],
        ),
        (
            "lambda_sumpair",
            "final sumpair!.Exp m = new sumpair.Pair {
               fst = new sumpair.Inj1 { e = new sumpair.Var { x = \"a\" } },
               snd = new sumpair.Var { x = \"b\" } };
             final sumpair!.Translator t = new sumpair.Translator();
             print m.translate(t).show();",
            &["(((fn p. (fn q. (fn f. ((f p) q)))) (fn l. (fn r. (l a)))) b)"],
        ),
        (
            "lambda_fst",
            "final pair!.Exp e = new pair.Fst { p = new pair.Pair {
               fst = new pair.Var { x = \"a\" },
               snd = new pair.Var { x = \"b\" } } };
             final pair!.Translator t = new pair.Translator();
             print e.translate(t).show();",
            &["((((fn p. (fn q. (fn f. ((f p) q)))) a) b) (fn p. (fn q. p)))"],
        ),
    ];
    let service_mains: [(&str, &str, &[&str]); 2] = [
        (
            "service_evolution",
            "final service!.SomeService s = new service.SomeService();
             final service!.EchoService e = new service.EchoService();
             final service!.Dispatcher d = new service.Dispatcher { s = s, e = e };
             final Server srv = new Server { disp = d };
             final service!.Packet p0 = new service.Packet { kind = 0, payload = \"a\" };
             final service!.Packet p1 = new service.Packet { kind = 1, payload = \"b\" };
             print d.dispatch(p0);
             print d.dispatch(p1);
             srv.evolve();
             final logService!.Dispatcher d2 = (cast logService!.Dispatcher)srv.disp;
             final logService!.Packet q0 = (view logService!.Packet)p0;
             final logService!.Packet q1 = (view logService!.Packet)p1;
             print d2.dispatch(q0);
             print d2.dispatch(q1);
             print d.dispatch(p0);
             print s.handled;",
            &[
                "handled:a",
                "echo:b",
                "[log] handled:a",
                "echo:b",
                "handled:a",
                "3",
            ],
        ),
        (
            "service_echo",
            "final service!.SomeService s = new service.SomeService();
             final service!.EchoService e = new service.EchoService();
             final service!.Dispatcher d = new service.Dispatcher { s = s, e = e };
             final service!.Packet p = new service.Packet { kind = 1, payload = \"z\" };
             print d.dispatch(p);
             print s.handled;",
            &["echo:z", "0"],
        ),
    ];
    let lambdas = lambda_mains.iter().map(|(name, main, out)| Program {
        name: (*name).into(),
        src: lambda::program(main),
        expected: lines(out),
    });
    let services = service_mains.iter().map(|(name, main, out)| Program {
        name: (*name).into(),
        src: service::program(main),
        expected: lines(out),
    });
    lambdas.chain(services).collect()
}

/// The shape of one generated family chain.
#[derive(Debug, Clone, Copy)]
pub struct ChainShape {
    /// Families in the chain: `F0`, `F1 extends F0`, ...
    pub families: usize,
    /// Classes per family.
    pub classes: usize,
    /// Methods per class.
    pub methods: usize,
    /// Chance, in percent, that a further-bound class `shares` its
    /// counterpart in the parent family.
    pub share_pct: u64,
}

/// The fixed grid of chain shapes `cold_run` draws its generated
/// programs from. Overrides, sharing and method forms come from
/// `SHAPE_SEED`; the run's seed picks the constants and the corpus order,
/// so every seed yields the same program sizes and the workload's
/// latency distribution does not move with it.
pub const CHAIN_SHAPES: [ChainShape; 24] = {
    let mut out = [ChainShape {
        families: 0,
        classes: 0,
        methods: 0,
        share_pct: 0,
    }; 24];
    let mut i = 0;
    while i < 24 {
        out[i] = ChainShape {
            families: 2 + i % 4,
            classes: 1 + (i / 4) % 3,
            methods: 1 + (i / 2) % 3,
            share_pct: [100, 75, 50, 25][i % 4],
        };
        i += 1;
    }
    out
};

/// One method body: how its value is computed from `this.v` or from
/// the method below it.
#[derive(Debug, Clone, Copy)]
enum Body {
    /// `return this.v + k;` (method 0 only)
    Add(i64),
    /// `return k - this.v;` (method 0 only)
    Sub(i64),
    /// `return this.m{j-1}() * 2 + k;`
    Double(i64),
    /// `if (t < this.m{j-1}()) { return this.m{j-1}() - k; } else { ... + k; }`
    Branch(i64, i64),
}

impl Body {
    /// The form comes from `shape`, the constants from `values`.
    fn random(shape: &mut Rng, values: &mut Rng, j: usize) -> Body {
        let k = values.range(1, 20);
        match (j, shape.next_u64() % 2) {
            (0, 0) => Body::Add(k),
            (0, _) => Body::Sub(k),
            (_, 0) => Body::Double(k),
            (_, _) => Body::Branch(values.range(0, 60), k),
        }
    }

    fn source(self, j: usize) -> String {
        let below = j.saturating_sub(1);
        match self {
            Body::Add(k) => format!("int m{j}() {{ return this.v + {k}; }}"),
            Body::Sub(k) => format!("int m{j}() {{ return {k} - this.v; }}"),
            Body::Double(k) => format!("int m{j}() {{ return this.m{below}() * 2 + {k}; }}"),
            Body::Branch(t, k) => format!(
                "int m{j}() {{ if ({t} < this.m{below}()) {{ return this.m{below}() - {k}; }} \
                 else {{ return this.m{below}() + {k}; }} }}"
            ),
        }
    }
}

/// A family chain of the given shape: every class of `F0` declares
/// a field and `methods` methods; each later family further binds every
/// class, sharing it with the parent family's class or not, and overrides
/// some of its methods. `main` views one object through every family that
/// shares its class, so late-bound calls pick each family's overrides,
/// and writes a shared field through the last view. The expected output
/// is computed here from the same choices, independently of both engines.
pub fn family_chain(
    structure: &mut Rng,
    rng: &mut Rng,
    shape: ChainShape,
    index: usize,
) -> Program {
    let (nf, nc, nm) = (shape.families, shape.classes, shape.methods);
    let init: Vec<i64> = (0..nc).map(|_| rng.range(1, 30)).collect();
    // bodies[i][k][j]: Some(body) when family i defines method j of class k.
    let mut bodies: Vec<Vec<Vec<Option<Body>>>> = Vec::with_capacity(nf);
    let mut shares: Vec<Vec<bool>> = Vec::with_capacity(nf);
    for i in 0..nf {
        let (mut fam_bodies, mut fam_shares) = (Vec::new(), Vec::new());
        for _ in 0..nc {
            fam_shares.push(i > 0 && structure.chance(shape.share_pct));
            let methods = (0..nm)
                .map(|j| (i == 0 || structure.chance(40)).then(|| Body::random(structure, rng, j)))
                .collect();
            fam_bodies.push(methods);
        }
        bodies.push(fam_bodies);
        shares.push(fam_shares);
    }
    // The value of method `top` of class `k` on an object viewed in family
    // `i` whose field holds `v`: each method resolves to the nearest
    // family at or below `i` that defines it, and its `this.m{j-1}()`
    // call is late-bound in family `i` again.
    let value = |i: usize, k: usize, top: usize, v: i64| -> i64 {
        (0..=top).fold(0, |below, j| {
            let def = (0..=i)
                .rev()
                .find_map(|f| bodies[f][k][j])
                .expect("F0 defines all");
            match def {
                Body::Add(c) => v + c,
                Body::Sub(c) => c - v,
                Body::Double(c) => below * 2 + c,
                Body::Branch(t, c) => {
                    if t < below {
                        below - c
                    } else {
                        below + c
                    }
                }
            }
        })
    };

    let mut src = String::new();
    for i in 0..nf {
        if i == 0 {
            src.push_str("class F0 {\n");
        } else {
            src.push_str(&format!("class F{i} extends F{} {{\n", i - 1));
        }
        for k in 0..nc {
            let share = if shares[i][k] {
                format!(" shares F{}.C{k}", i - 1)
            } else {
                String::new()
            };
            src.push_str(&format!("  class C{k}{share} {{\n"));
            if i == 0 {
                src.push_str(&format!("    int v = {};\n", init[k]));
            }
            for (j, body) in bodies[i][k].iter().enumerate() {
                if let Some(b) = body {
                    src.push_str(&format!("    {}\n", b.source(j)));
                }
            }
            src.push_str("  }\n");
        }
        src.push_str("}\n");
    }

    let top = nm - 1;
    let mut main = String::new();
    let mut expected = Vec::new();
    for k in 0..nc {
        let mut v = init[k];
        main.push_str(&format!("  final F0!.C{k} o0_{k} = new F0.C{k}();\n"));
        main.push_str(&format!("  print o0_{k}.m{top}();\n"));
        expected.push(value(0, k, top, v).to_string());
        let mut chain = true;
        let mut last_shared = 0;
        for (i, fam) in shares.iter().enumerate().skip(1) {
            chain = chain && fam[k];
            if chain {
                main.push_str(&format!(
                    "  final F{i}!.C{k} o{i}_{k} = (view F{i}!.C{k})o0_{k};\n"
                ));
                last_shared = i;
            } else {
                main.push_str(&format!("  final F{i}!.C{k} o{i}_{k} = new F{i}.C{k}();\n"));
            }
            main.push_str(&format!("  print o{i}_{k}.m{top}();\n"));
            expected.push(value(i, k, top, if chain { v } else { init[k] }).to_string());
        }
        let d = rng.range(1, 9);
        let l = last_shared;
        main.push_str(&format!("  o{l}_{k}.v = o{l}_{k}.v + {d};\n"));
        main.push_str(&format!("  print o0_{k}.m0();\n"));
        v += d;
        expected.push(value(0, k, 0, v).to_string());
    }
    src.push_str(&format!("main {{\n{main}}}\n"));
    Program {
        name: format!("chain{index:02}_f{nf}c{nc}m{nm}"),
        src,
        expected: Some(expected),
    }
}

/// The `cold_run` corpus: the paper programs, the flagship programs, and
/// one seeded family chain per grid shape, in a seeded order.
pub fn cold_corpus(rng: &mut Rng) -> Vec<Program> {
    let mut out = paper_programs();
    out.extend(flagship_programs());
    for (i, shape) in CHAIN_SHAPES.iter().enumerate() {
        let mut structure = Rng::new(SHAPE_SEED ^ i as u64);
        out.push(family_chain(&mut structure, rng, *shape, i));
    }
    rng.shuffle(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jns_core::{Backend, Compiler};

    fn run_both(p: &Program) -> Vec<String> {
        let compiled = Compiler::default()
            .compile(&p.src)
            .unwrap_or_else(|e| panic!("{} does not compile:\n{e}\n{}", p.name, p.src));
        let vm = compiled.run_on(Backend::Vm).expect("vm runs").output;
        let tw = compiled
            .run_on(Backend::TreeWalk)
            .expect("tree-walker runs")
            .output;
        assert_eq!(vm, tw, "{}: backends disagree", p.name);
        vm
    }

    #[test]
    fn family_chains_parse_check_and_agree_across_backends() {
        for seed in 0..12 {
            let (mut structure, mut rng) = (Rng::new(seed), Rng::new(seed + 100));
            for (i, shape) in CHAIN_SHAPES.iter().enumerate() {
                let p = family_chain(&mut structure, &mut rng, *shape, i);
                let out = run_both(&p);
                assert_eq!(Some(out), p.expected, "seed {seed}: {}\n{}", p.name, p.src);
            }
        }
    }

    #[test]
    fn fixed_programs_print_their_expected_output() {
        for p in paper_programs().iter().chain(&flagship_programs()) {
            assert_eq!(Some(run_both(p)), p.expected, "{}", p.name);
        }
        let p = evolve(&mut Rng::new(1));
        assert_eq!(Some(run_both(&p)), p.expected);
    }

    #[test]
    fn translate_requests_agree_across_backends() {
        for seed in 0..4 {
            let p = translate_request(&mut Rng::new(seed));
            let out = run_both(&p);
            assert_eq!(out.len(), TERMS_PER_ROUND + 3);
        }
    }

    #[test]
    fn same_seed_same_sources() {
        let a: Vec<String> = cold_corpus(&mut Rng::new(7))
            .into_iter()
            .map(|p| p.src)
            .collect();
        let b: Vec<String> = cold_corpus(&mut Rng::new(7))
            .into_iter()
            .map(|p| p.src)
            .collect();
        assert_eq!(a, b);
        let c: Vec<String> = cold_corpus(&mut Rng::new(8))
            .into_iter()
            .map(|p| p.src)
            .collect();
        assert_ne!(a, c);
    }
}
