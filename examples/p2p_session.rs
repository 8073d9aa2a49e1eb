//! A full collaborative session over the simulated P2P network — the
//! p2pEdit walkthrough (paper Fig. 6): a user opens a page and becomes the
//! administrator, others join, edit concurrently under random latency,
//! rights change mid-flight, one participant leaves.
//!
//! Run with `cargo run --example p2p_session`.

use dce::editor::TextSession;
use dce::net::sim::Latency;
use dce::policy::{DocObject, Right, Subject};

fn show(s: &TextSession, label: &str, sites: &[usize]) {
    print!("{label:<34}");
    for &i in sites {
        print!(" | s{}: {:?}", s.site(i).user(), s.text(i));
    }
    println!();
}

fn main() {
    // User 0 opens the page — they are the administrator.
    let mut s = TextSession::open("# notes\n", 3, 2024, Latency::Uniform(5, 120));
    show(&s, "page opened", &[0, 1, 2]);

    // Everyone types concurrently under random latency.
    s.insert_str(1, 9, "alice was here. ").unwrap();
    s.insert_str(2, 9, "bob too. ").unwrap();
    s.insert_str(0, 1, "** ").unwrap();
    show(&s, "typing (in flight)", &[0, 1, 2]);
    s.sync();
    show(&s, "after propagation", &[0, 1, 2]);
    assert!(s.converged());

    // The admin freezes the header: nobody may update or delete chars 1..=10.
    s.define_region("header", DocObject::Range { from: 1, to: 10 }).unwrap();
    s.revoke(Subject::All, DocObject::Named("header".into()), [Right::Update, Right::Delete])
        .unwrap();
    s.sync();
    match s.replace_char(1, 4, 'X') {
        Err(e) => println!("{:<34} -> {e}", "s1 edits the frozen header"),
        Ok(()) => unreachable!("header is frozen"),
    }

    // A new collaborator joins mid-session, bootstrapping from the admin.
    let carol = s.join(7).unwrap();
    s.sync();
    show(&s, "carol joined (user 7)", &[0, carol]);
    s.insert_str(carol, s.text(carol).chars().count() + 1, "carol signing on.").unwrap();
    s.sync();
    assert!(s.converged());
    show(&s, "carol's first edit", &[0, carol]);

    // Concurrent revocation: bob spams while losing his insert right.
    s.revoke(Subject::User(2), DocObject::Document, [Right::Insert]).unwrap();
    s.insert_str(2, 1, "SPAM ").unwrap(); // optimistic at bob's replica
    show(&s, "bob spams optimistically", &[2]);
    s.sync();
    show(&s, "retroactive enforcement", &[0, 1, 2, carol]);
    assert!(s.converged());
    assert!(!s.text(0).contains("SPAM"));

    // Bob leaves; the session continues.
    s.leave(2);
    s.insert_str(1, 1, "> ").unwrap();
    s.sync();
    assert!(s.converged());
    show(&s, "after bob left", &[0, 1, carol]);

    // Housekeeping: compact the settled history. Every site prunes only
    // what each remaining member acknowledged in a heartbeat, and bob will
    // never send one again: until the administrator expels him, his
    // silence pins the stability horizon and nothing is reclaimed.
    s.expel(2).unwrap();
    let reclaimed = s.compact();
    assert!(reclaimed > 0, "the expelled member no longer pins the horizon");
    println!("{:<34} -> {reclaimed} log entries reclaimed", "log compaction");
    s.insert_str(carol, 1, "~").unwrap();
    s.sync();
    assert!(s.converged());
    show(&s, "still editing after compaction", &[0, carol]);
}
