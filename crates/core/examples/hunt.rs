//! Scratch divergence hunter: replays a seeded randomized session with
//! verbose tracing. Usage: `cargo run -p dce-core --example hunt -- <seed>`.

use dce_core::{CoopRequest, Message, Site};
use dce_document::{Char, CharDocument, Op};
use dce_policy::{AdminOp, Authorization, DocObject, Policy, Right, Sign, Subject};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const ADMIN: u32 = 0;

fn make_sites(n_users: u32, initial: &str) -> Vec<Site<Char>> {
    let users: Vec<u32> = (0..=n_users).collect();
    let policy = Policy::permissive(users.clone());
    let d0 = CharDocument::from_str(initial);
    users
        .iter()
        .map(|&u| {
            if u == ADMIN {
                Site::new_admin(u, d0.clone(), policy.clone())
            } else {
                Site::new_user(u, ADMIN, d0.clone(), policy.clone())
            }
        })
        .collect()
}

fn random_coop(
    site: &mut Site<Char>,
    rng: &mut StdRng,
    next_char: &mut u32,
) -> Option<CoopRequest<Char>> {
    let len = site.document().len();
    let choice = rng.gen_range(0..100);
    let op = if len == 0 || choice < 50 {
        let pos = rng.gen_range(1..=len + 1);
        let c = char::from_u32('a' as u32 + (*next_char % 26)).unwrap();
        *next_char += 1;
        Op::ins(pos, c)
    } else if choice < 80 {
        let pos = rng.gen_range(1..=len);
        let elem = *site.document().get(pos).unwrap();
        Op::Del { pos, elem }
    } else {
        let pos = rng.gen_range(1..=len);
        let old = *site.document().get(pos).unwrap();
        let c = char::from_u32('A' as u32 + (*next_char % 26)).unwrap();
        *next_char += 1;
        Op::up(pos, old, c)
    };
    site.generate(op).ok()
}

fn random_admin(rng: &mut StdRng, n_users: u32) -> AdminOp {
    let user = rng.gen_range(1..=n_users);
    let right = [Right::Insert, Right::Delete, Right::Update][rng.gen_range(0..3)];
    let sign = if rng.gen_bool(0.5) { Sign::Minus } else { Sign::Plus };
    AdminOp::AddAuth {
        pos: 0,
        auth: Authorization::new(Subject::User(user), DocObject::Document, [right], sign),
    }
}

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(608);
    let n_users = 4u32;
    let rounds = 4usize;
    let initial = "abc";

    let mut rng = StdRng::seed_from_u64(seed);
    let mut sites = make_sites(n_users, initial);
    let mut next_char = 0;

    let n = sites.len();
    let mut pending: Vec<Vec<Message<Char>>> = vec![Vec::new(); n];

    let broadcast = |msg: Message<Char>, from: usize, pending: &mut Vec<Vec<Message<Char>>>| {
        for (i, q) in pending.iter_mut().enumerate() {
            if i != from {
                q.push(msg.clone());
            }
        }
    };

    let describe = |m: &Message<Char>| -> String {
        match m {
            Message::Coop(q) => format!("Coop {:?} v{} op={:?}", q.ot.id, q.v, q.ot.top.op),
            Message::Admin(r) => format!("Admin {:?} ver{} op={:?}", r.admin, r.version, r.op),
            other => format!("{other:?}"),
        }
    };

    for round in 0..rounds {
        #[allow(clippy::needless_range_loop)] // `sites[i]` and `pending` are both indexed
        for i in 0..n {
            if rng.gen_bool(0.7) {
                if let Some(q) = random_coop(&mut sites[i], &mut rng, &mut next_char) {
                    println!("[r{round}] s{i} GEN  {}", describe(&Message::Coop(q.clone())));
                    broadcast(Message::Coop(q), i, &mut pending);
                }
            }
        }
        if rng.gen_bool(0.6) {
            let op = random_admin(&mut rng, n_users);
            if let Ok(r) = sites[0].admin_generate(op) {
                println!("[r{round}] s0 ADM  {}", describe(&Message::Admin(r.clone())));
                broadcast(Message::Admin(r), 0, &mut pending);
            }
        }

        for i in 0..n {
            pending[i].shuffle(&mut rng);
            let k = rng.gen_range(0..=pending[i].len());
            let rest = pending[i].split_off(k);
            for msg in std::mem::replace(&mut pending[i], rest) {
                println!("[r{round}] s{i} RECV {}", describe(&msg));
                sites[i].receive(msg).unwrap();
                for out in sites[i].drain_outbox() {
                    println!("[r{round}] s{i} OUT  {}", describe(&out));
                    broadcast(out, i, &mut pending);
                }
            }
        }
        for (i, s) in sites.iter().enumerate() {
            println!("[r{round}] s{i} doc={:?} ver={}", s.document().to_string(), s.version());
        }
    }

    println!("--- quiescence ---");
    loop {
        let mut moved = false;
        for i in 0..n {
            pending[i].shuffle(&mut rng);
            for msg in std::mem::take(&mut pending[i]) {
                println!("[q] s{i} RECV {}", describe(&msg));
                sites[i].receive(msg).unwrap();
                moved = true;
                for out in sites[i].drain_outbox() {
                    println!("[q] s{i} OUT  {}", describe(&out));
                    broadcast(out, i, &mut pending);
                }
            }
        }
        if !moved && pending.iter().all(|q| q.is_empty()) {
            break;
        }
    }

    println!("--- final ---");
    for (i, s) in sites.iter().enumerate() {
        println!(
            "s{i} doc={:?} ver={} queued={}",
            s.document().to_string(),
            s.version(),
            s.queued()
        );
    }
    for entry in sites[0].engine().log().iter() {
        let flags: Vec<_> = sites.iter().map(|s| s.flag_of(entry.id)).collect();
        println!("req {:?} inert={} flags={:?}", entry.id, entry.inert, flags);
    }
    println!("--- buffers ---");
    for (i, s) in sites.iter().enumerate() {
        println!("s{i}:");
        for (p, cell) in s.engine().buffer().cells().enumerate() {
            let chain: Vec<String> = cell
                .chain
                .iter()
                .map(|l| {
                    format!(
                        "{}:{} v={:?} saw={:?}",
                        l.id.site,
                        l.id.seq,
                        l.value,
                        l.saw.iter().map(|s| (s.site, s.seq)).collect::<Vec<_>>()
                    )
                })
                .collect();
            println!(
                "  [{p}] elem={:?} orig={:?} ghost={} kills={} creator={:?} chain={:?}",
                cell.elem,
                cell.original,
                cell.ghost,
                cell.killers.len() + cell.anon_kills as usize,
                cell.creator.map(|c| (c.site, c.seq)),
                chain
            );
        }
    }
}
