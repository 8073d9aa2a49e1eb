//! Never-panic sweep over the JSON journal reader, the one decoder of
//! journal files from outside the program: a `events_to_json` export and
//! a `write_flight` dump of a busy session.
//!
//! Every strict truncation of either document must decode to `Err`, and
//! seeded bit flips must decode to `Ok` or `Err`, never panic.

use dce_document::{Char, CharDocument, Op};
use dce_net::sim::{Latency, SimNet};
use dce_net::FaultPlan;
use dce_obs::{Event, ObsHandle};
use dce_policy::{AdminOp, Authorization, DocObject, Policy, Right, Sign, Subject};
use dce_trace::json::{events_from_json, events_to_json};
use dce_trace::{read_flight, write_flight};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

const SEED: u64 = 0x5EED_DEC0;
/// Mutations of the JSON export.
const FLIPS: usize = 2048;
/// Mutations of the flight dump (each one is a file written and read).
const FLIGHT_FLIPS: usize = 256;

/// The journal of a small session with admin churn and lossy delivery.
/// Site 0 is the administrator.
fn busy_journal() -> (Vec<Event>, ObsHandle) {
    let mut sim: SimNet<Char> = SimNet::group(
        3,
        CharDocument::from_str("state transfer"),
        Policy::permissive([0, 1, 2]),
        SEED,
        Latency::Uniform(1, 40),
    );
    sim.set_fault_plan(FaultPlan::none().with_drops(0.2).with_duplicates(0.1));
    let obs = ObsHandle::recording(1 << 12);
    sim.enable_observability(obs.clone());
    sim.submit_coop(1, Op::ins(1, 'x')).unwrap();
    sim.submit_coop(2, Op::del(3, 'a')).unwrap();
    sim.submit_admin(
        0,
        AdminOp::AddAuth {
            pos: 0,
            auth: Authorization::new(
                Subject::User(2),
                DocObject::Range { from: 1, to: 4 },
                [Right::Insert, Right::Update],
                Sign::Minus,
            ),
        },
    )
    .unwrap();
    sim.submit_coop(2, Op::ins(2, 'y')).unwrap();
    sim.submit_coop(1, Op::up(2, 's', 'S')).unwrap();
    sim.run_to_quiescence();
    let events = obs.events();
    assert!(!events.is_empty());
    (events, obs)
}

/// Flips one to three random bits of `bytes`.
fn flip(bytes: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..rng.gen_range(1..=3) {
        let i = rng.gen_range(0..out.len());
        out[i] ^= 1 << rng.gen_range(0..8u32);
    }
    out
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dce-trace-sweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn mutated_journals_never_panic() {
    let (events, _) = busy_journal();
    let journal = events_to_json(&events);
    assert_eq!(events_from_json(&journal).unwrap(), events);
    // The export is ASCII, so every byte offset is a char boundary.
    assert!(journal.is_ascii());
    for cut in 0..journal.len() {
        assert!(events_from_json(&journal[..cut]).is_err(), "prefix of {cut} bytes decoded");
    }
    let mut rng = StdRng::seed_from_u64(SEED ^ 2);
    for _ in 0..FLIPS {
        if let Ok(text) = String::from_utf8(flip(journal.as_bytes(), &mut rng)) {
            let _ = events_from_json(&text);
        }
    }
}

#[test]
fn mutated_flight_dumps_never_panic() {
    let (events, obs) = busy_journal();
    let dir = scratch_dir("flight");
    let path = write_flight(&dir, SEED, "sweep", &events, &obs.snapshot()).unwrap();
    assert_eq!(read_flight(&path).unwrap().events, events);
    let dump = std::fs::read(&path).unwrap();
    let body = String::from_utf8(dump.clone()).unwrap().trim_end().len();
    let mutant = dir.join("mutant.json");
    let mut rng = StdRng::seed_from_u64(SEED ^ 3);
    // Cutting only the trailing newline leaves a complete document; any
    // cut into the body must not decode.
    for cut in 0..body {
        std::fs::write(&mutant, &dump[..cut]).unwrap();
        assert!(read_flight(&mutant).is_err(), "prefix of {cut} bytes decoded");
    }
    for _ in 0..FLIGHT_FLIPS {
        std::fs::write(&mutant, flip(&dump, &mut rng)).unwrap();
        let _ = read_flight(&mutant);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
