//! Property tests for the `ExperimentSpec` text serialization: for any
//! finite spec, `spec -> String -> spec` is the identity.

use faithful::service::{parse_error, parse_result};
use faithful::{
    AnalogSpec, AnalogTask, ChainSpec, ChannelRunSpec, ChannelSpec, DelaySpec, DigitalSpec,
    EdgeSpec, ExperimentSpec, FailurePolicySpec, GateKindSpec, IntegratorSpec, NetlistSpec,
    NodeSpec, NoiseSpec, Orientation, OutputSelect, ReferenceSpec, ScenarioSpec, SignalSpec,
    SpfSpec, SpfTask, SupplySpec, SweepSpec, TopologySpec, WorkloadSpec,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A finite `f64` drawn from a wide dynamic range, including negative,
/// integral-valued and subnormal-ish magnitudes — the values a text
/// serialization is most likely to mangle.
fn arb_f64(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..6u32) {
        0 => rng.gen_range(-10.0..10.0),
        1 => f64::from(rng.gen_range(-1000i32..1000)), // integral-valued reals
        2 => rng.gen_range(0.0..1.0) * 10f64.powi(rng.gen_range(-30..30)),
        3 => -rng.gen_range(0.0..1.0) * 10f64.powi(rng.gen_range(-300..300)),
        4 => 0.0,
        _ => rng.gen_range(1e-3..1e3),
    }
}

/// Labels and port names exercise quoting: spaces, quotes, backslashes,
/// newlines and non-ASCII.
fn arb_name(rng: &mut StdRng) -> String {
    const ALPHABET: &[char] = &[
        'a', 'B', '0', '_', ' ', '"', '\\', '\n', '\t', '{', '}', '[', ']', ';', ',', '=', 'δ',
        '↑', '#',
    ];
    let len = rng.gen_range(1..8usize);
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect()
}

fn arb_word(rng: &mut StdRng) -> String {
    const FIRST: &[char] = &['a', 'b', 'z', '_', 'Q'];
    const REST: &[char] = &['a', '9', '_', 'Z'];
    let len = rng.gen_range(0..5usize);
    let mut s = String::new();
    s.push(FIRST[rng.gen_range(0..FIRST.len())]);
    for _ in 0..len {
        s.push(REST[rng.gen_range(0..REST.len())]);
    }
    s
}

fn arb_signal(rng: &mut StdRng) -> SignalSpec {
    match rng.gen_range(0..4u32) {
        0 => SignalSpec::Zero,
        1 => SignalSpec::pulse(arb_f64(rng), arb_f64(rng)),
        2 => {
            let n = rng.gen_range(0..4usize);
            SignalSpec::train((0..n).map(|_| (arb_f64(rng), arb_f64(rng))))
        }
        _ => {
            let n = rng.gen_range(0..5usize);
            SignalSpec::times(rng.gen_range(0..2u32) == 0, (0..n).map(|_| arb_f64(rng)))
        }
    }
}

fn arb_noise(rng: &mut StdRng) -> NoiseSpec {
    match rng.gen_range(0..6u32) {
        0 => NoiseSpec::Zero,
        1 => NoiseSpec::WorstCase,
        2 => NoiseSpec::Extending,
        3 => NoiseSpec::Uniform { seed: rng.gen() },
        4 => NoiseSpec::Gaussian {
            sigma: arb_f64(rng),
            seed: rng.gen(),
        },
        _ => NoiseSpec::Constant {
            shift: arb_f64(rng),
        },
    }
}

fn arb_channel(rng: &mut StdRng) -> ChannelSpec {
    let mut spec = match rng.gen_range(0..6u32) {
        0 => ChannelSpec::pure(arb_f64(rng)),
        1 => ChannelSpec::inertial(arb_f64(rng), arb_f64(rng)),
        2 => ChannelSpec::ddm(arb_f64(rng), arb_f64(rng), arb_f64(rng)),
        3 => ChannelSpec::involution_exp(arb_f64(rng), arb_f64(rng), arb_f64(rng)),
        4 => ChannelSpec::eta_exp(
            arb_f64(rng),
            arb_f64(rng),
            arb_f64(rng),
            arb_f64(rng),
            arb_f64(rng),
            arb_noise(rng),
        ),
        // a custom kind with an arbitrary mix of parameter types
        _ => {
            let mut c = ChannelSpec::new(arb_word(rng));
            for _ in 0..rng.gen_range(0..4usize) {
                let name = arb_word(rng);
                c = match rng.gen_range(0..4u32) {
                    0 => c.with_num(name, arb_f64(rng)),
                    1 => c.with_int(name, rng.gen()),
                    2 => c.with_text(name, arb_word(rng)),
                    _ => c.with_text(name, arb_name(rng)),
                };
            }
            c
        }
    };
    if rng.gen_range(0..4u32) == 0 {
        spec = spec.with_int("seed", rng.gen());
    }
    spec
}

fn arb_gate_kind(rng: &mut StdRng) -> GateKindSpec {
    match rng.gen_range(0..9u32) {
        0 => GateKindSpec::Buf,
        1 => GateKindSpec::Not,
        2 => GateKindSpec::And,
        3 => GateKindSpec::Or,
        4 => GateKindSpec::Nand,
        5 => GateKindSpec::Nor,
        6 => GateKindSpec::Xor,
        7 => GateKindSpec::Xnor,
        _ => {
            let inputs = rng.gen_range(1..3u32);
            GateKindSpec::Table {
                inputs,
                rows: (0..(1 << inputs))
                    .map(|_| rng.gen_range(0..2u32) == 0)
                    .collect(),
            }
        }
    }
}

fn arb_topology(rng: &mut StdRng) -> TopologySpec {
    if rng.gen_range(0..2u32) == 0 {
        TopologySpec::InverterChain {
            stages: rng.gen_range(1..12u32),
            channel: arb_channel(rng),
        }
    } else {
        let mut nodes = Vec::new();
        for _ in 0..rng.gen_range(1..5usize) {
            nodes.push(match rng.gen_range(0..3u32) {
                0 => NodeSpec::Input {
                    name: arb_name(rng),
                },
                1 => NodeSpec::Output {
                    name: arb_name(rng),
                },
                _ => NodeSpec::Gate {
                    name: arb_name(rng),
                    kind: arb_gate_kind(rng),
                    arity: if rng.gen_range(0..2u32) == 0 {
                        Some(rng.gen_range(1..4u32))
                    } else {
                        None
                    },
                    init: rng.gen_range(0..2u32) == 0,
                },
            });
        }
        let mut edges = Vec::new();
        for _ in 0..rng.gen_range(0..4usize) {
            edges.push(EdgeSpec {
                from: arb_name(rng),
                to: arb_name(rng),
                pin: rng.gen_range(0..4u32),
                channel: if rng.gen_range(0..2u32) == 0 {
                    Some(arb_channel(rng))
                } else {
                    None
                },
            });
        }
        TopologySpec::Netlist(NetlistSpec { nodes, edges })
    }
}

fn arb_digital(rng: &mut StdRng) -> DigitalSpec {
    let mut d = DigitalSpec::new(arb_topology(rng), arb_f64(rng));
    if rng.gen_range(0..2u32) == 0 {
        d = d.with_workers(rng.gen_range(1..9u32));
    }
    if rng.gen_range(0..2u32) == 0 {
        d = d.with_max_events(rng.gen());
    }
    d = d.with_on_failure(match rng.gen_range(0..4u32) {
        0 => FailurePolicySpec::Abort,
        1 => FailurePolicySpec::Retry {
            attempts: rng.gen_range(0..5u32),
        },
        _ => FailurePolicySpec::Skip,
    });
    for _ in 0..rng.gen_range(0..4usize) {
        let mut s = ScenarioSpec::new(arb_name(rng));
        if rng.gen_range(0..2u32) == 0 {
            s = s.with_seed(rng.gen());
        }
        for _ in 0..rng.gen_range(0..3usize) {
            s = s.with_input(arb_name(rng), arb_signal(rng));
        }
        d = d.with_scenario(s);
    }
    let watch = (0..rng.gen_range(0..3usize))
        .map(|_| arb_name(rng))
        .collect();
    d.with_outputs(OutputSelect {
        signals: rng.gen_range(0..2u32) == 0,
        stats: rng.gen_range(0..2u32) == 0,
        vcd: rng.gen_range(0..2u32) == 0,
        watch,
    })
}

fn arb_analog(rng: &mut StdRng) -> AnalogSpec {
    let task = match rng.gen_range(0..3u32) {
        0 => AnalogTask::Samples {
            inverted: rng.gen_range(0..2u32) == 0,
        },
        1 => AnalogTask::Characterize,
        _ => AnalogTask::Deviations {
            reference: match rng.gen_range(0..4u32) {
                0 => ReferenceSpec::Exp {
                    tau: arb_f64(rng),
                    t_p: arb_f64(rng),
                    v_th: arb_f64(rng),
                },
                1 => ReferenceSpec::Rational {
                    a: arb_f64(rng),
                    b: arb_f64(rng),
                    c: arb_f64(rng),
                },
                2 => ReferenceSpec::Empirical {
                    up: (0..rng.gen_range(0..5usize))
                        .map(|_| (arb_f64(rng), arb_f64(rng)))
                        .collect(),
                    down: (0..rng.gen_range(0..5usize))
                        .map(|_| (arb_f64(rng), arb_f64(rng)))
                        .collect(),
                },
                _ => ReferenceSpec::SelfEmpirical,
            },
            orientation: match rng.gen_range(0..3u32) {
                0 => Orientation::Both,
                1 => Orientation::Normal,
                _ => Orientation::Inverted,
            },
        },
    };
    let mut a = AnalogSpec::new(rng.gen_range(1..9u32), task)
        .with_chain(ChainSpec::umc90(rng.gen_range(1..9u32)).with_width_scale(arb_f64(rng)))
        .with_sweep(SweepSpec {
            widths: (0..rng.gen_range(0..6usize))
                .map(|_| arb_f64(rng))
                .collect(),
            settle: arb_f64(rng),
            tail: arb_f64(rng),
            dt: arb_f64(rng),
            slew: arb_f64(rng),
            stage: rng.gen_range(0..7u32),
            integrator: if rng.gen_range(0..2u32) == 0 {
                IntegratorSpec::Rk4
            } else {
                IntegratorSpec::Rk45 {
                    rtol: arb_f64(rng),
                    atol: arb_f64(rng),
                }
            },
        });
    if rng.gen_range(0..2u32) == 0 {
        a = a.with_supply(SupplySpec::Sine {
            nominal: arb_f64(rng),
            amplitude: arb_f64(rng),
            period: arb_f64(rng),
            phase: arb_f64(rng),
        });
    }
    if rng.gen_range(0..2u32) == 0 {
        a = a.with_workers(rng.gen_range(1..9u32));
    }
    a
}

fn arb_spf(rng: &mut StdRng) -> SpfSpec {
    let delay = if rng.gen_range(0..2u32) == 0 {
        DelaySpec::Exp {
            tau: arb_f64(rng),
            t_p: arb_f64(rng),
            v_th: arb_f64(rng),
        }
    } else {
        DelaySpec::Rational {
            a: arb_f64(rng),
            b: arb_f64(rng),
            c: arb_f64(rng),
        }
    };
    let task = if rng.gen_range(0..2u32) == 0 {
        SpfTask::Theory
    } else {
        SpfTask::Simulate {
            noise: arb_noise(rng),
            input: arb_signal(rng),
            horizon: arb_f64(rng),
        }
    };
    SpfSpec {
        delay,
        eta_minus: arb_f64(rng),
        eta_plus: arb_f64(rng),
        task,
    }
}

fn arb_spec(seed: u64) -> ExperimentSpec {
    let rng = &mut StdRng::seed_from_u64(seed);
    match rng.gen_range(0..4u32) {
        0 => ExperimentSpec::new(WorkloadSpec::Channel(ChannelRunSpec {
            channel: arb_channel(rng),
            input: arb_signal(rng),
        })),
        1 => ExperimentSpec::digital(arb_digital(rng)),
        2 => ExperimentSpec::analog(arb_analog(rng)),
        _ => ExperimentSpec::spf(arb_spf(rng)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn spec_text_roundtrip_is_identity(seed in 0u64..u64::MAX) {
        let spec = arb_spec(seed);
        let text = spec.to_string();
        let back: ExperimentSpec = text
            .parse()
            .map_err(|e| TestCaseError::Fail(format!("{e}\n---\n{text}")))?;
        prop_assert_eq!(&spec, &back, "---\n{}", text);
        // a second render of the reparsed spec is byte-identical:
        // serialization is canonical
        prop_assert_eq!(text, back.to_string());
    }

    /// The service cache key: `canonical_hash` survives parse → print →
    /// parse, and comment/whitespace variants of the same document
    /// collide onto the same hash (they are the same cache entry).
    #[test]
    fn canonical_hash_is_format_insensitive(seed in 0u64..u64::MAX) {
        let spec = arb_spec(seed);
        let hash = spec.canonical_hash();
        let text = spec.to_string();
        let back: ExperimentSpec = text
            .parse()
            .map_err(|e| TestCaseError::Fail(format!("{e}\n---\n{text}")))?;
        prop_assert_eq!(hash, back.canonical_hash(), "---\n{}", text);

        // Reformat without changing meaning: leading/trailing blank
        // lines and comments, plus a comment just inside the workload
        // braces (the first `{` always opens the workload node, so the
        // insertion cannot land inside a quoted string).
        let variant = format!(
            "\n  # a leading comment\n{}\n# a trailing comment\n\t \n",
            text.replacen('{', "{\n  # an inline comment\n", 1)
        );
        let reparsed: ExperimentSpec = variant
            .parse()
            .map_err(|e| TestCaseError::Fail(format!("{e}\n---\n{variant}")))?;
        prop_assert_eq!(&spec, &reparsed, "---\n{}", variant);
        prop_assert_eq!(hash, reparsed.canonical_hash(), "---\n{}", variant);
        prop_assert_eq!(spec.cache_key(), reparsed.cache_key(), "---\n{}", variant);
    }

    /// The cache key stands in for the canonical text: two specs have
    /// equal keys exactly when their canonical texts are equal. Checked
    /// on a pair of independent specs and on each spec against its text
    /// mutants, which the parser sometimes folds back to the same spec
    /// (`2` read as a real `2.0`, a quoted word read as a word) and
    /// sometimes does not (`-0.0` vs `0.0`, `1` vs `1.0` as a channel
    /// parameter).
    #[test]
    fn cache_keys_are_equal_exactly_when_canonical_texts_are(
        seed in 0u64..u64::MAX,
        other in 0u64..u64::MAX,
    ) {
        let spec = arb_spec(seed);
        let text = spec.to_string();
        let same = |a: &ExperimentSpec, b: &ExperimentSpec| {
            let (texts, keys) = (a.to_string() == b.to_string(), a.cache_key() == b.cache_key());
            if keys {
                assert_eq!(a.canonical_hash(), b.canonical_hash());
            }
            (texts, keys)
        };
        let (texts, keys) = same(&spec, &arb_spec(other));
        prop_assert_eq!(texts, keys, "seeds {} and {}", seed, other);
        let rng = &mut StdRng::seed_from_u64(other);
        for mutant in mutants(&text, rng) {
            let Ok(back) = mutant.parse::<ExperimentSpec>() else {
                continue;
            };
            let (texts, keys) = same(&spec, &back);
            prop_assert_eq!(texts, keys, "---\n{}\n---\n{}", text, mutant);
        }
    }

    /// The key is written by walking the spec, and it is the encoding
    /// of the tree its canonical text parses to: for every spec and for
    /// each of its text mutants that parses.
    #[test]
    fn cache_key_is_the_encoding_of_the_canonical_tree(seed in 0u64..u64::MAX) {
        let spec = arb_spec(seed);
        let text = spec.to_string();
        prop_assert_eq!(spec.cache_key(), spec.cache_key_via_text(), "---\n{}", text);
        let rng = &mut StdRng::seed_from_u64(seed);
        for mutant in mutants(&text, rng) {
            let Ok(back) = mutant.parse::<ExperimentSpec>() else {
                continue;
            };
            prop_assert_eq!(back.cache_key(), back.cache_key_via_text(), "---\n{}", mutant);
        }
    }
}

/// Byte ranges `(start, end)` in a document.
type Sites = Vec<(usize, usize)>;

/// Byte ranges of the numeric literals and of the bare-word field values
/// in a canonical document, outside quoted strings.
fn literal_sites(text: &str) -> (Sites, Sites) {
    let b = text.as_bytes();
    let is_word = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let (mut numbers, mut words) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'"' => {
                i += 1;
                while b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
            }
            c if (c.is_ascii_digit() || c == b'-') && (i == 0 || !is_word(b[i - 1])) => {
                let start = i;
                i += 1;
                while i < b.len()
                    && (b[i].is_ascii_digit()
                        || matches!(b[i], b'.' | b'e' | b'E')
                        || (matches!(b[i], b'-' | b'+') && matches!(b[i - 1], b'e' | b'E')))
                {
                    i += 1;
                }
                numbers.push((start, i));
            }
            c if is_word(c) => {
                let start = i;
                while i < b.len() && is_word(b[i]) {
                    i += 1;
                }
                if text[..start].ends_with("= ") && matches!(b.get(i), Some(b';' | b'\n')) {
                    words.push((start, i));
                }
            }
            _ => i += 1,
        }
    }
    (numbers, words)
}

/// Up to four one-literal edits of `text`: a real's `.0` dropped, an
/// integer given one, a sign flipped (`0.0` ↔ `-0.0`), a last digit
/// bumped, or a bare word quoted. Some still parse, some do not.
fn mutants(text: &str, rng: &mut StdRng) -> Vec<String> {
    let (numbers, words) = literal_sites(text);
    let mut out = Vec::new();
    for _ in 0..4 {
        let splice = |(start, end): (usize, usize), with: String| {
            format!("{}{with}{}", &text[..start], &text[end..])
        };
        if !words.is_empty() && rng.gen_range(0..4u32) == 0 {
            let site = words[rng.gen_range(0..words.len())];
            out.push(splice(site, format!("\"{}\"", &text[site.0..site.1])));
            continue;
        }
        let Some(&site) = numbers.get(rng.gen_range(0..numbers.len().max(1))) else {
            break;
        };
        let n = &text[site.0..site.1];
        let edited = match rng.gen_range(0..4u32) {
            0 if n.ends_with(".0") && !n.contains(['e', 'E']) => n[..n.len() - 2].to_owned(),
            1 if n.bytes().all(|c| c.is_ascii_digit()) => format!("{n}.0"),
            2 => n
                .strip_prefix('-')
                .map_or_else(|| format!("-{n}"), str::to_owned),
            _ => {
                let last = n.len() - 1;
                match n.as_bytes()[last] {
                    d @ b'0'..=b'9' => format!("{}{}", &n[..last], (d - b'0' + 1) % 10),
                    _ => continue,
                }
            }
        };
        out.push(splice(site, edited));
    }
    out
}

/// Values at the edges of what a reader accepts: past `u32`, at and
/// past `u64`, a negative zero, an empty list and node, an empty string
/// and a word.
const HOSTILE: [&str; 8] = [
    "4294967297",
    "18446744073709551615",
    "18446744073709551616",
    "-0.0",
    "[]",
    "{}",
    "\"\"",
    "x",
];

/// Every document of `tests/wire_golden.txt`: specs, results, error
/// documents and checkpoints.
fn written_documents() -> Vec<&'static str> {
    include_str!("wire_golden.txt")
        .split("== ")
        .skip(1)
        .map(|doc| doc.split_once('\n').expect("a named document").1)
        .collect()
}

/// Eight hostile edits of `text`: cut short, a range cut out, a
/// literal replaced by a [`HOSTILE`] value, or one put in anywhere.
fn hostile_mutants(text: &str, rng: &mut StdRng) -> Vec<String> {
    let (numbers, words) = literal_sites(text);
    let sites: Sites = numbers.into_iter().chain(words).collect();
    let at = |rng: &mut StdRng| {
        let mut i = rng.gen_range(0..text.len() + 1);
        while !text.is_char_boundary(i) {
            i -= 1;
        }
        i
    };
    let mut out = Vec::new();
    for _ in 0..8 {
        let hostile = HOSTILE[rng.gen_range(0..HOSTILE.len())];
        let (a, b) = (at(rng), at(rng));
        let (a, b) = (a.min(b), a.max(b));
        out.push(match rng.gen_range(0..4u32) {
            0 => text[..a].to_owned(),
            1 => format!("{}{}", &text[..a], &text[b..]),
            2 if !sites.is_empty() => {
                let (start, end) = sites[rng.gen_range(0..sites.len())];
                format!("{}{hostile}{}", &text[..start], &text[end..])
            }
            _ => format!("{}{hostile}{}", &text[..a], &text[a..]),
        });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No text a peer sends makes a reader panic: every hostile edit of
    /// every written document reads as a value or as a typed error,
    /// through each public reader.
    #[test]
    fn hostile_documents_read_without_panicking(seed in 0u64..u64::MAX) {
        let rng = &mut StdRng::seed_from_u64(seed);
        for doc in written_documents() {
            for mutant in hostile_mutants(doc, rng) {
                let _ = mutant.parse::<ExperimentSpec>();
                let _ = parse_result(&mutant);
                let _ = parse_error(&mutant);
            }
        }
    }
}

/// The pairs the cache key must get right, pinned: what the canonical
/// text keeps apart gets distinct keys, what it folds gets equal ones.
#[test]
fn cache_keys_follow_the_canonical_text_on_the_edge_cases() {
    let parse = |text: &str| -> ExperimentSpec {
        text.parse().unwrap_or_else(|e| panic!("{e}\n---\n{text}"))
    };
    let doc = |channel: &str, input: &str| {
        parse(&format!(
            "faithful/1 channel {{ channel = {channel}; input = {input} }}"
        ))
    };
    let pure = "pure { delay = 1.0 }";
    let distinct = [
        (
            doc(pure, "pulse { at = -0.0; width = 2.0 }"),
            doc(pure, "pulse { at = 0.0; width = 2.0 }"),
        ),
        (
            doc("pure { delay = 1 }", "zero"),
            doc("pure { delay = 1.0 }", "zero"),
        ),
    ];
    for (a, b) in &distinct {
        assert_ne!(a.to_string(), b.to_string());
        assert_ne!(a.cache_key(), b.cache_key(), "---\n{a}---\n{b}");
        assert_ne!(a.canonical_hash(), b.canonical_hash());
    }
    let reference = doc(pure, "pulse { at = 0.0; width = 2.0 }");
    let equal = [
        // an empty node and its bare word
        (doc("fixed", "zero"), doc("fixed {}", "zero {}")),
        // a comment and whitespace variant of one document
        (
            reference.clone(),
            parse(
                "# leading\nfaithful/1 channel {\n  # inline\n  input = pulse { width = 2.0; \
                 at = 0.0 };\n\tchannel = pure{delay=1.0}\n}\n# trailing\n",
            ),
        ),
        // a real written as an integer where the schema reads a real
        (reference.clone(), doc(pure, "pulse { at = 0; width = 2 }")),
    ];
    for (a, b) in &equal {
        assert_eq!(a.to_string(), b.to_string());
        assert_eq!(a.cache_key(), b.cache_key(), "---\n{a}---\n{b}");
        assert_eq!(a.canonical_hash(), b.canonical_hash());
    }
}

/// The shipped specs' hashes name their on-disk cache entries, so they
/// may not move silently: pinned to the full-avalanche key hash of disk
/// format version 4.
#[test]
fn shipped_spec_hashes_are_pinned() {
    let pinned = [
        ("analog_characterize", 0x271b_bb35_5227_34f9),
        ("channel_pulse", 0xc17d_f771_ea18_121b),
        ("digital_sweep", 0x562d_8062_8b2f_fcd6),
        ("spf_theory", 0x6c8f_68c3_4c7f_e469),
    ];
    for (name, hash) in pinned {
        let path = format!("{}/specs/{name}.spec", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let spec: ExperimentSpec = text.parse().unwrap_or_else(|e| panic!("{path}: {e}"));
        let got = spec.canonical_hash();
        assert_eq!(got, hash, "{name}: {got:#018x}");
    }
}

/// Near-identical specs get distinct hashes: the 5 000 service specs of
/// the digital bench differ only in a scenario label and seed, and a
/// hash that mixed each word by a rotate and a multiply gave 7 pairs of
/// them one hash (`k386`/`k406` … `k395`/`k415`).
#[test]
fn near_identical_specs_do_not_share_a_hash() {
    let mut seen = std::collections::HashMap::new();
    for k in 0..5000u64 {
        let spec = ExperimentSpec::digital(
            DigitalSpec::new(
                TopologySpec::InverterChain {
                    stages: 128,
                    channel: ChannelSpec::eta_exp(
                        1.0,
                        0.5,
                        0.5,
                        0.02,
                        0.02,
                        NoiseSpec::Uniform { seed: 0 },
                    ),
                },
                2000.0,
            )
            .with_scenario(ScenarioSpec::new(format!("k{k}")).with_seed(k).with_input(
                "a",
                SignalSpec::train((0..12).map(|i| (f64::from(i) * 75.0, 15.0))),
            )),
        );
        if let Some(other) = seen.insert(spec.canonical_hash(), k) {
            panic!(
                "k{other} and k{k} share the hash {:#018x}",
                spec.canonical_hash()
            );
        }
    }
}

#[test]
fn readable_example_document_parses() {
    let text = r#"
# A digital sweep and its knobs, hand-written with comments.
faithful/1 digital {
  topology = chain {
    stages = 4;
    channel = eta {
      delay = exp; tau = 1.0; t_p = 0.5; v_th = 0.5;
      minus = 0.02; plus = 0.02;
      noise = uniform; seed = 7;
    };
  };
  horizon = 100;           # integers coerce to reals
  workers = 2;
  scenarios = [
    scenario { label = "w1"; seed = 1; inputs = [
      drive { port = "a"; signal = pulse { at = 1.0; width = 6.0 } }
    ] }
  ];
}
"#;
    let spec: ExperimentSpec = text.parse().unwrap();
    let WorkloadSpec::Digital(d) = &spec.workload else {
        panic!("expected digital workload");
    };
    assert_eq!(d.horizon, 100.0);
    assert_eq!(d.workers, Some(2));
    assert_eq!(d.scenarios.len(), 1);
    assert_eq!(d.scenarios[0].seed, Some(1));
    // defaults apply when outputs are omitted
    assert_eq!(d.outputs, OutputSelect::default());
    // and the canonical form round-trips
    let canonical = spec.to_string();
    assert_eq!(canonical.parse::<ExperimentSpec>().unwrap(), spec);
}

/// A 40 KB document of 20 000 nested lists used to overflow the parser's
/// stack and abort the process; it is now a typed, located error.
#[test]
fn deeply_nested_input_is_a_spec_error() {
    let depth = 20_000;
    let text = format!(
        "faithful/1 channel {{ junk = {}{} }}",
        "[".repeat(depth),
        "]".repeat(depth)
    );
    let err = text.parse::<ExperimentSpec>().unwrap_err();
    assert!(err.message().contains("nest deeper than 128"), "{err}");
    assert!(err.span().is_some(), "{err}");
    let err = faithful::lint_text(
        &text,
        &faithful::core::factory::ChannelRegistry::with_builtins(),
    )
    .unwrap_err();
    assert!(err.message().contains("nest deeper than 128"), "{err}");
}

#[test]
fn parse_errors_are_informative() {
    // wrong version
    let err = "faithful/9 spf {}".parse::<ExperimentSpec>().unwrap_err();
    assert!(err.message().contains("version"), "{err}");
    // unknown workload
    let err = "faithful/1 cooking {}"
        .parse::<ExperimentSpec>()
        .unwrap_err();
    assert!(err.message().contains("workload"), "{err}");
    // missing field
    let err = "faithful/1 channel { channel = pure { delay = 1.0 } }"
        .parse::<ExperimentSpec>()
        .unwrap_err();
    assert!(err.message().contains("input"), "{err}");
    // unknown field is rejected (catches typos)
    let err = "faithful/1 channel { channel = pure {}; input = zero; bogus = 1 }"
        .parse::<ExperimentSpec>()
        .unwrap_err();
    assert!(err.message().contains("bogus"), "{err}");
    // type mismatch
    let err = "faithful/1 spf { delay = exp { tau = \"x\"; t_p = 1.0; v_th = 0.5 }; \
               eta_minus = 0.0; eta_plus = 0.0; task = theory }"
        .parse::<ExperimentSpec>()
        .unwrap_err();
    assert!(err.message().contains("tau"), "{err}");
    // an optional u32 out of range points at its value
    let err = "faithful/1 digital {\n  topology = netlist { nodes = [gate { name = \"g\"; \
               kind = not; arity = 5000000000; init = false }]; edges = [] };\n  \
               horizon = 1.0;\n  scenarios = [];\n}"
        .parse::<ExperimentSpec>()
        .unwrap_err();
    assert_eq!(
        err.to_string(),
        "experiment spec error at line 2, column 72: gate: field \"arity\" out of range"
    );
}

#[test]
fn experiments_md_specs_parse_and_run() {
    // The two spec documents shown in EXPERIMENTS.md must stay valid.
    let digital = r#"
faithful/1 digital {
  topology = chain {
    stages = 8;
    channel = eta {
      delay = exp; tau = 1.0; t_p = 0.5; v_th = 0.5;
      minus = 0.02; plus = 0.02;
      noise = uniform; seed = 0;
    };
  };
  horizon = 100.0;
  workers = 4;
  scenarios = [
    scenario { label = "draw0"; seed = 0; inputs = [
      drive { port = "a"; signal = pulse { at = 1.0; width = 6.0 } }
    ] },
    scenario { label = "draw1"; seed = 1; inputs = [
      drive { port = "a"; signal = pulse { at = 1.0; width = 6.0 } }
    ] }
  ];
  outputs = outputs { signals = true; stats = true; vcd = false };
}
"#;
    let result = faithful::Experiment::parse(digital).unwrap().run().unwrap();
    let sweep = result.digital().expect("digital workload");
    assert_eq!(sweep.outcomes.len(), 2);
    assert_eq!(sweep.stats.as_ref().unwrap().failures, 0);
    assert!(sweep.outcomes[0].signal("y").is_some());

    let analog = r#"
faithful/1 analog {
  chain = chain { stages = 7; width_scale = 1.0 };
  supply = dc { volts = 1.0 };
  sweep = sweep {
    widths = [20.0, 32.0, 44.0, 56.0, 68.0, 80.0, 92.0, 104.0];
    settle = 60.0; tail = 250.0; dt = 0.05; slew = 10.0; stage = 3;
    integrator = rk45 { rtol = 1e-6; atol = 1e-9 };
  };
  task = characterize;
  workers = 4;
}
"#;
    let result = faithful::Experiment::parse(analog).unwrap().run().unwrap();
    let (up, down) = result
        .analog()
        .expect("analog workload")
        .characterization()
        .expect("characterize task");
    assert!(!up.is_empty());
    assert!(!down.is_empty());
}

#[test]
fn fault_tolerance_docs_are_pinned() {
    // The spec block shown in EXPERIMENTS.md "Fault tolerance" — kept
    // verbatim here so the docs cannot drift from a runnable spec.
    let spec = r#"faithful/1 digital {
  topology = chain {
    stages = 4;
    channel = eta {
      delay = exp; tau = 1.0; t_p = 0.5; v_th = 0.5;
      minus = 0.02; plus = 0.02;
      noise = uniform; seed = 0;
    };
  };
  horizon = 100.0;
  workers = 2;
  on_failure = retry { attempts = 2 };
  scenarios = [
    scenario { label = "draw0"; seed = 0; inputs = [
      drive { port = "a"; signal = pulse { at = 1.0; width = 6.0 } }
    ] }
  ];
}"#;
    let experiments = include_str!("../EXPERIMENTS.md");
    assert!(
        experiments.contains(spec),
        "EXPERIMENTS.md drifted from the pinned fault-tolerance spec"
    );
    let parsed: ExperimentSpec = spec.parse().unwrap();
    let digital = match &parsed.workload {
        WorkloadSpec::Digital(d) => d,
        other => panic!("expected digital workload, got {other:?}"),
    };
    assert_eq!(digital.on_failure, FailurePolicySpec::Retry { attempts: 2 });
    let result = faithful::Experiment::new(parsed).run().unwrap();
    let sweep = result.digital().expect("digital workload");
    assert_eq!(sweep.completed, 1);
    assert_eq!(sweep.failed, 0);

    // both documents describe the robustness surface
    for needle in [
        "## Fault tolerance",
        "### Resumable sweeps",
        "### Chaos testing",
        "IVL_FAULT_QUARANTINE_DIR",
        "IVL_FAULT_SEED",
        "Experiment::resume",
    ] {
        assert!(
            experiments.contains(needle),
            "EXPERIMENTS.md lost {needle:?}"
        );
    }
    let readme = include_str!("../README.md");
    for needle in [
        "## Fault-tolerant sweeps",
        "on_failure",
        "IVL_FAULT_QUARANTINE_DIR",
        "IVL_FAULT_SEED",
        "Experiment::resume",
        "with_fault_plan",
    ] {
        assert!(readme.contains(needle), "README.md lost {needle:?}");
    }
}
