//! `dce-trace` — merge per-site journals into the global happens-before
//! DAG and render the request spans.
//!
//! With no arguments the bin records a fresh run of the paper's Fig. 2
//! revocation race and renders its span tree. Captured evidence can be
//! loaded instead — JSON journals (repeatable, one per site) or a
//! flight-recorder dump — and whatever was loaded or replayed can be
//! saved as one JSON journal:
//!
//! ```text
//! dce-trace                                  # replay Fig. 2, span tree
//! dce-trace --swimlane                       # also the per-site swimlane
//! dce-trace --save fig2.json                 # also write the journal
//! dce-trace --events s1.json --events s2.json
//! dce-trace --flight results/flight-42.json  # post-mortem a failed run
//! dce-trace --req 1#1                        # only one request's span
//! dce-trace --svg trace.svg                  # write an SVG swimlane
//! ```

use dce::core::{Message, Site};
use dce::document::{Char, CharDocument, Op};
use dce::obs::{Event, ObsHandle, ReqId};
use dce::policy::{AdminOp, Authorization, DocObject, Policy, Right, Sign, Subject};
use dce::trace::{build_spans, json, merge_journals, read_flight, render, SpanReport};
use std::path::Path;
use std::process::ExitCode;

fn parse_req(arg: &str) -> Option<ReqId> {
    let (site, seq) = arg.split_once('#')?;
    Some(ReqId::new(site.parse().ok()?, seq.parse().ok()?))
}

/// Replays the Fig. 2 revocation race with the journal recording and
/// returns the captured events: the admin revokes user 1's insertion
/// right concurrently with user 1 inserting, and every delivery order
/// still converges by retroactive undo.
fn replay_fig2() -> Vec<Event> {
    let obs = ObsHandle::recording(4096);
    let d0 = CharDocument::from_str("abc");
    let p = Policy::permissive([0, 1, 2]);
    let mut adm: Site<Char> = Site::new_admin(0, d0.clone(), p.clone());
    let mut s1 = Site::new_user(1, 0, d0.clone(), p.clone());
    let mut s2 = Site::new_user(2, 0, d0, p);
    for site in [&mut adm, &mut s1, &mut s2] {
        site.set_observability(obs.clone());
    }

    let revoke = AdminOp::AddAuth {
        pos: 0,
        auth: Authorization::new(
            Subject::User(1),
            DocObject::Document,
            [Right::Insert],
            Sign::Minus,
        ),
    };
    let r = adm.admin_generate(revoke).expect("admin revokes");
    let q = s1.generate(Op::ins(1, 'x')).expect("concurrent insert");
    adm.receive(Message::Coop(q.clone())).expect("adm sees the late insert");
    s2.receive(Message::Coop(q)).expect("s2 applies the insert first");
    s2.receive(Message::Admin(r.clone())).expect("s2 undoes on the revocation");
    s1.receive(Message::Admin(r)).expect("s1 retracts its own insert");
    obs.events()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dce-trace [--events FILE]... [--flight FILE] [--save FILE]\n\
         \x20                [--req SITE#SEQ] [--swimlane] [--svg FILE]\n\
         \n\
         --events FILE    merge a JSON journal (repeat for per-site captures)\n\
         --flight FILE    post-mortem a flight-recorder dump\n\
         --save FILE      write the merged journal as JSON (readable by --events)\n\
         --req SITE#SEQ   render only this request's span\n\
         --swimlane       also print the per-site swimlane\n\
         --svg FILE       write the merged trace as an SVG swimlane\n\
         \n\
         With no input flags, replays the paper's Fig. 2 revocation race."
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut events_paths: Vec<String> = Vec::new();
    let mut flight_path: Option<String> = None;
    let mut req: Option<ReqId> = None;
    let mut want_swimlane = false;
    let mut svg_path: Option<String> = None;
    let mut save_path: Option<String> = None;

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--events" => match argv.next() {
                Some(p) => events_paths.push(p),
                None => return usage(),
            },
            "--flight" => match argv.next() {
                Some(p) => flight_path = Some(p),
                None => return usage(),
            },
            "--req" => match argv.next().as_deref().and_then(parse_req) {
                Some(id) => req = Some(id),
                None => return usage(),
            },
            "--swimlane" => want_swimlane = true,
            "--svg" => match argv.next() {
                Some(p) => svg_path = Some(p),
                None => return usage(),
            },
            "--save" => match argv.next() {
                Some(p) => save_path = Some(p),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    // Gather journals from whichever sources were named.
    let mut journals: Vec<Vec<Event>> = Vec::new();
    for path in &events_paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("dce-trace: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match json::events_from_json(&text) {
            Ok(events) => journals.push(events),
            Err(e) => {
                eprintln!("dce-trace: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &flight_path {
        match read_flight(Path::new(path)) {
            Ok(dump) => {
                println!("flight dump: seed {:#x}\nreason: {}\n", dump.seed, dump.reason);
                journals.push(dump.events);
            }
            Err(e) => {
                eprintln!("dce-trace: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if journals.is_empty() {
        journals.push(replay_fig2());
    }

    let trace = merge_journals(&journals);
    if let Some(path) = &save_path {
        if let Err(e) = std::fs::write(path, json::events_to_json(&trace.events)) {
            eprintln!("dce-trace: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("saved {} events to {path}\n", trace.events.len());
    }
    println!("{}", trace.summary());
    for w in &trace.warnings {
        println!("warning: {w}");
    }
    println!();

    let mut report = build_spans(&trace);
    if let Some(id) = req {
        report = SpanReport { spans: report.spans.into_iter().filter(|s| s.id == id).collect() };
        if report.spans.is_empty() {
            eprintln!("dce-trace: no span for request {id}");
            return ExitCode::FAILURE;
        }
    }
    print!("{}", render::span_tree(&report));

    if want_swimlane {
        println!();
        print!("{}", render::swimlane(&trace.events));
    }

    if let Some(path) = &svg_path {
        if let Err(e) = std::fs::write(path, render::svg(&trace)) {
            eprintln!("dce-trace: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nwrote SVG swimlane to {path}");
    }
    ExitCode::SUCCESS
}
