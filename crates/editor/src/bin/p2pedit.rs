//! p2pedit — the paper's prototype (Fig. 6) as an interactive command-line
//! tool: a simulated group of collaborating sites you drive from a REPL.
//!
//! ```text
//! cargo run -p dce-editor --bin p2pedit
//! > help
//! ```
//!
//! Commands are line-oriented, so the tool is also scriptable:
//! `printf 'type 1 1 hello\nsync\nshow\n' | cargo run -p dce-editor --bin p2pedit`

use dce_core::audit;
use dce_editor::TextSession;
use dce_net::sim::Latency;
use dce_policy::{DocObject, Right, Subject};
use std::io::{self, BufRead, Write};

const HELP: &str = "\
p2pedit commands (1-based positions; site 0 is the administrator):
  type <site> <pos> <text>     insert text at pos
  del <site> <pos> <len>       delete len characters at pos
  cut <site> <pos> <len>       cut into the clipboard
  paste <site> <pos>           paste the clipboard
  grant <user> <rights>        grant rights (i,d,u,r) on the document
  revoke <user> <rights>       revoke rights on the document
  freeze <from> <to>           nobody may update/delete that range
  join <user>                  a new user joins (bootstraps from admin)
  leave <site>                 a site leaves the group
  expel <user>                 remove a user from the policy
  delegate <user>              allow the user to propose admin ops
  sync                         deliver all in-flight messages
  show                         print every site's view
  policy                       print the administrator's policy
  audit <site>                 print the audit trail at a site
  gc                           gossip heartbeats and compact logs
  help                         this text
  quit                         exit";

fn parse_rights(s: &str) -> Vec<Right> {
    s.chars()
        .filter_map(|c| match c {
            'i' => Some(Right::Insert),
            'd' => Some(Right::Delete),
            'u' => Some(Right::Update),
            'r' => Some(Right::Read),
            _ => None,
        })
        .collect()
}

fn main() {
    let mut session = TextSession::open("", 3, 42, Latency::Uniform(5, 120));
    let mut clipboard: Vec<dce_document::Char> = Vec::new();
    let stdin = io::stdin();
    let interactive = atty_guess();

    println!("p2pedit — 3 sites (0 = administrator). `help` for commands.");
    if interactive {
        print!("> ");
        io::stdout().flush().ok();
    }

    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let parts: Vec<&str> = line.split_whitespace().collect();
        let outcome = run_command(&mut session, &mut clipboard, &parts);
        match outcome {
            CommandOutcome::Quit => break,
            CommandOutcome::Message(msg) => {
                if !msg.is_empty() {
                    println!("{msg}");
                }
            }
        }
        if interactive {
            print!("> ");
            io::stdout().flush().ok();
        }
    }
    println!("bye");
}

enum CommandOutcome {
    Message(String),
    Quit,
}

fn run_command(
    session: &mut TextSession,
    clipboard: &mut Vec<dce_document::Char>,
    parts: &[&str],
) -> CommandOutcome {
    use CommandOutcome::Message;
    let msg = |s: String| Message(s);
    let err = |e: dce_core::CoreError| Message(format!("!! {e}"));

    match parts {
        [] => Message(String::new()),
        ["help"] => Message(HELP.to_owned()),
        ["quit"] | ["exit"] => CommandOutcome::Quit,
        ["type", site, pos, rest @ ..] => {
            let (Ok(site), Ok(pos)) = (site.parse(), pos.parse()) else {
                return Message("!! usage: type <site> <pos> <text>".into());
            };
            let text = rest.join(" ");
            match session.insert_str(site, pos, &text) {
                Ok(()) => msg(format!("s{site} typed {text:?}")),
                Err(e) => err(e),
            }
        }
        ["del", site, pos, len] => match (site.parse(), pos.parse(), len.parse()) {
            (Ok(site), Ok(pos), Ok(len)) => match session.delete_range(site, pos, len) {
                Ok(()) => msg(format!("s{site} deleted {len} chars at {pos}")),
                Err(e) => err(e),
            },
            _ => Message("!! usage: del <site> <pos> <len>".into()),
        },
        ["cut", site, pos, len] => match (site.parse(), pos.parse(), len.parse()) {
            (Ok(site), Ok(pos), Ok(len)) => match session.cut(site, pos, len) {
                Ok(clip) => {
                    let text: String = clip.iter().map(|c| c.0).collect();
                    *clipboard = clip;
                    msg(format!("clipboard = {text:?}"))
                }
                Err(e) => err(e),
            },
            _ => Message("!! usage: cut <site> <pos> <len>".into()),
        },
        ["paste", site, pos] => match (site.parse(), pos.parse()) {
            (Ok(site), Ok(pos)) => {
                let clip = clipboard.clone();
                match session.paste(site, pos, &clip) {
                    Ok(()) => msg("pasted".into()),
                    Err(e) => err(e),
                }
            }
            _ => Message("!! usage: paste <site> <pos>".into()),
        },
        ["grant", user, rights] => match user.parse() {
            Ok(user) => {
                match session.grant(Subject::User(user), DocObject::Document, parse_rights(rights))
                {
                    Ok(()) => msg(format!("granted {rights} to s{user}")),
                    Err(e) => err(e),
                }
            }
            _ => Message("!! usage: grant <user> <rights like idu>".into()),
        },
        ["revoke", user, rights] => match user.parse() {
            Ok(user) => {
                match session.revoke(Subject::User(user), DocObject::Document, parse_rights(rights))
                {
                    Ok(()) => msg(format!("revoked {rights} from s{user}")),
                    Err(e) => err(e),
                }
            }
            _ => Message("!! usage: revoke <user> <rights>".into()),
        },
        ["freeze", from, to] => match (from.parse(), to.parse()) {
            (Ok(from), Ok(to)) => match session.revoke(
                Subject::All,
                DocObject::Range { from, to },
                [Right::Update, Right::Delete],
            ) {
                Ok(()) => msg(format!("froze {from}..={to}")),
                Err(e) => err(e),
            },
            _ => Message("!! usage: freeze <from> <to>".into()),
        },
        ["join", user] => match user.parse() {
            Ok(user) => match session.join(user) {
                Ok(idx) => msg(format!("user {user} joined as site {idx}")),
                Err(e) => err(e),
            },
            _ => Message("!! usage: join <user>".into()),
        },
        ["leave", site] => match site.parse() {
            Ok(site) => {
                if session.leave(site) {
                    msg(format!("site {site} left"))
                } else {
                    Message(format!("!! no such site {site}"))
                }
            }
            _ => Message("!! usage: leave <site>".into()),
        },
        ["expel", user] => match user.parse() {
            Ok(user) => match session.expel(user) {
                Ok(()) => msg(format!("expelled s{user}")),
                Err(e) => err(e),
            },
            _ => Message("!! usage: expel <user>".into()),
        },
        ["delegate", user] => match user.parse() {
            Ok(user) => match session.delegate(user) {
                Ok(()) => msg(format!("delegated administration proposals to s{user}")),
                Err(e) => err(e),
            },
            _ => Message("!! usage: delegate <user>".into()),
        },
        ["sync"] => {
            session.sync();
            msg(format!("synced; converged = {}", session.converged()))
        }
        ["show"] => {
            let mut out = String::new();
            for i in 0..session.net().len() {
                out.push_str(&format!("  s{} | {:?}\n", session.site(i).user(), session.text(i)));
            }
            out.pop();
            msg(out)
        }
        ["policy"] => msg(format!("{}", session.site(0).policy())),
        ["audit", site] => match site.parse::<usize>() {
            Ok(site) if site < session.net().len() => {
                let records = audit(session.site(site));
                if records.is_empty() {
                    msg("(no requests in the audit window)".into())
                } else {
                    msg(records.iter().map(|r| format!("  {r}")).collect::<Vec<_>>().join("\n"))
                }
            }
            _ => Message("!! usage: audit <site>".into()),
        },
        ["gc"] => {
            let n = session.compact();
            msg(format!("compacted {n} log entries group-wide"))
        }
        other => Message(format!("!! unknown command {:?} — try `help`", other.join(" "))),
    }
}

/// Crude interactivity guess without an extra dependency: honored via env.
fn atty_guess() -> bool {
    std::env::var("P2PEDIT_PROMPT").is_ok()
}
