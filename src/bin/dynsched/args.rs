//! The command line's schema. Every subcommand is one `const`
//! [`CommandSpec`] of [`FlagSpec`] rows: a kind (and range), a default and
//! what the flag `requires`. [`parse`] checks an argument list against the
//! spec in one walk, before the command opens a file or generates a trace;
//! [`help`] and the "known flags" of an unknown-flag error are rendered
//! from the same rows, so a flag is described once.

use std::str::FromStr;

/// What a flag's value must be.
#[derive(Clone, Copy)]
pub enum Kind {
    /// Present or absent; takes no value.
    Switch,
    /// A whole number in `min..=max`.
    Count { min: u64, max: u64 },
    /// A platform width of at least `min`; never zero (`Platform::new(0)` panics).
    Cores { min: u32 },
    /// Any `u64`.
    Seed,
    /// A finite number in `min..=max`, `min` itself excluded when `open`.
    Real { min: f64, max: f64, open: bool },
    /// One of the listed words.
    Choice(&'static [&'static str]),
    /// A name the command looks up (a policy, a scenario family).
    Text,
    /// A file or a directory.
    Path,
}

impl Kind {
    /// The metavar a synopsis shows, and what a value is, as the words an
    /// error ends in (empty for the kinds no value can fail).
    fn describe(&self) -> (&'static str, String) {
        match *self {
            Kind::Switch => ("", String::new()),
            Kind::Text => (" NAME", String::new()),
            Kind::Path => (" PATH", String::new()),
            Kind::Count { min: 0, max } => (" N", format!("a whole number in 0..={max}")),
            Kind::Count { min, max } => (" N", format!("a positive whole number in {min}..={max}")),
            Kind::Cores { min } => (" N", format!("a core count of at least {min}")),
            Kind::Seed => (" N", format!("a whole number in 0..={}", u64::MAX)),
            Kind::Real { min, max, open } => {
                let from = if open { '(' } else { '[' };
                (" X", format!("a finite number in {from}{min}, {max}]"))
            }
            Kind::Choice(words) => (" WORD", format!("one of {}", words.join(", "))),
        }
    }

    /// `Ok` when `text` is a value of this kind, inside its range.
    pub fn check(&self, text: &str) -> Result<(), String> {
        let ok = match *self {
            Kind::Switch | Kind::Text | Kind::Path => true,
            Kind::Count { min, max } => text.parse().is_ok_and(|v: u64| (min..=max).contains(&v)),
            Kind::Cores { .. } if text.parse() == Ok(0u32) => {
                return Err("a platform needs at least one core".to_string());
            }
            Kind::Cores { min } => text.parse().is_ok_and(|v: u32| v >= min),
            Kind::Seed => text.parse::<u64>().is_ok(),
            Kind::Real { min, max, open } => text
                .parse()
                .is_ok_and(|v: f64| v.is_finite() && v >= min && v <= max && !(open && v == min)),
            Kind::Choice(words) => words.contains(&text),
        };
        let wrong = || format!("{text:?} is not {}", self.describe().1);
        ok.then_some(()).ok_or_else(wrong)
    }
}

/// One flag, or one positional (named `<like-this>`, or `[like-this]` when
/// it may be left out).
#[derive(Clone, Copy)]
pub struct FlagSpec {
    pub name: &'static str,
    pub kind: Kind,
    /// The value of an absent flag; `None` leaves the command to fill it (`help` says how).
    pub default: Option<&'static str>,
    /// `"--flag"`, or `"--flag value"`, that this flag means nothing without.
    pub requires: Option<&'static str>,
    pub help: &'static str,
}

pub const fn flag(name: &'static str, kind: Kind, help: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        kind,
        default: None,
        requires: None,
        help,
    }
}

impl FlagSpec {
    pub const fn default(mut self, value: &'static str) -> Self {
        self.default = Some(value);
        self
    }

    pub const fn requires(mut self, flag: &'static str) -> Self {
        self.requires = Some(flag);
        self
    }

    pub fn is_option(&self) -> bool {
        self.name.starts_with("--")
    }
}

/// One subcommand. `flags` is a list of groups, positionals among them in
/// their order, so that commands sharing a row share its one spec.
pub struct CommandSpec {
    pub name: &'static str,
    pub flags: &'static [&'static [FlagSpec]],
    pub about: &'static str,
    pub run: fn(&[String]) -> Result<(), String>,
}

impl CommandSpec {
    pub fn rows(&self) -> impl Iterator<Item = &'static FlagSpec> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    pub fn row(&self, name: &str) -> Option<&'static FlagSpec> {
        self.rows().find(|row| row.name == name)
    }
}

/// A command line that passed its spec: every value is of its kind and in
/// range, so the readers below cannot fail on anything the user typed.
pub struct Args<'a> {
    spec: &'static CommandSpec,
    /// `(name, value)` of what was given, positionals under their row's
    /// name; a switch's value is empty.
    given: Vec<(&'static str, &'a str)>,
}

impl<'a> Args<'a> {
    pub fn switch(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The text given for `name`, or else its default; `None` when there is
    /// neither, which the caller then fills.
    pub fn opt_text(&self, name: &str) -> Option<&'a str> {
        let given = self.given.iter().find(|(n, _)| *n == name);
        given.map_or_else(|| self.spec.row(name)?.default, |(_, v)| Some(*v))
    }

    /// [`Self::opt_text`] of a required positional or a flag with a default.
    pub fn text(&self, name: &str) -> &'a str {
        let value = self.opt_text(name);
        value.unwrap_or_else(|| panic!("{name} is read as present, but may be absent"))
    }

    /// [`Self::text`] as a number.
    pub fn num<T: FromStr>(&self, name: &str) -> T {
        let value = self.text(name).parse();
        value.unwrap_or_else(|_| panic!("{name} is read as a type its kind does not fit"))
    }

    /// [`Self::opt_text`] as a number.
    pub fn opt<T: FromStr>(&self, name: &str) -> Option<T> {
        self.opt_text(name).map(|_| self.num(name))
    }
}

/// Check `argv` against `spec` in one walk. A positional is whatever is not a
/// flag or a flag's value, so the two may interleave. The first unknown or
/// repeated flag, missing or flag-shaped value, value outside its kind or range,
/// surplus or missing positional, or flag without what it `requires` is the
/// error, and names the offender.
pub fn parse<'a>(spec: &'static CommandSpec, argv: &'a [String]) -> Result<Args<'a>, String> {
    let mut given: Vec<(&'static str, &'a str)> = Vec::new();
    let mut positionals = spec.rows().filter(|row| !row.is_option());
    let names: Vec<&str> = spec.rows().map(|row| row.name).collect();
    let mut rest = argv.iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        let row = match arg.starts_with("--") {
            true => spec.row(arg),
            false => positionals.next(),
        };
        let takes = || format!("`{}` takes: {}", spec.name, names.join(" "));
        let row = row.ok_or_else(|| format!("unexpected argument {arg:?} ({})", takes()))?;
        if given.iter().any(|(name, _)| *name == row.name) {
            return Err(format!("{arg} is given more than once"));
        }
        let value = match (row.is_option(), row.kind) {
            (false, _) => arg,
            (true, Kind::Switch) => "",
            (true, _) => match rest.next() {
                Some(value) if !value.starts_with("--") => value,
                Some(next) => return Err(format!("{arg} needs a value, not the flag {next:?}")),
                None => return Err(format!("{arg} needs a value")),
            },
        };
        let checked = row.kind.check(value);
        checked.map_err(|why| format!("bad {}: {why}", row.name))?;
        given.push((row.name, value));
    }
    if let Some(missing) = positionals.find(|row| row.name.starts_with('<')) {
        return Err(format!("{} needs {}", spec.name, missing.name));
    }
    let args = Args { spec, given };
    for row in spec.rows().filter(|row| args.switch(row.name)) {
        // A flag that requires nothing is met by its own presence.
        let requires = row.requires.unwrap_or(row.name);
        let met = match requires.split_once(' ') {
            Some((flag, value)) => args.opt_text(flag) == Some(value),
            None => args.switch(requires),
        };
        if !met {
            return Err(format!("{} requires {requires}", row.name));
        }
    }
    Ok(args)
}

/// Append `text` to `out` behind `indent` spaces, breaking lines before
/// column 80 and indenting the continuations by 4 more.
fn wrap(out: &mut String, indent: usize, text: &str) {
    let mut line = " ".repeat(indent);
    for word in text.split_whitespace() {
        if line.len() + word.len() >= 80 {
            *out += &format!("{}\n", line.trim_end());
            line = " ".repeat(indent + 4);
        }
        line = line + word + " ";
    }
    *out += &format!("{}\n", line.trim_end());
}

/// `dynsched help`: per command its synopsis, its `about`, and one entry
/// per row with what its kind expects, its default and its `requires`.
pub fn help(commands: &[&CommandSpec]) -> String {
    let mut out = "dynsched — dynamic HPC scheduling policies from simulation + ML \
                   (SC'17 reproduction)\n\nUSAGE:\n"
        .to_string();
    for spec in commands {
        let mut synopsis = vec!["dynsched", spec.name];
        let positionals = spec.rows().filter(|row| !row.is_option());
        synopsis.extend(positionals.map(|row| row.name));
        synopsis.extend(spec.rows().any(FlagSpec::is_option).then_some("[flags]"));
        wrap(&mut out, 2, &synopsis.join(" "));
        wrap(&mut out, 6, spec.about);
        for row in spec.rows() {
            let (metavar, expects) = row.kind.describe();
            let metavar = if row.is_option() { metavar } else { "" };
            let notes = [
                Some(expects).filter(|range| !range.is_empty()),
                row.default.map(|d| format!("default {d}")),
                row.requires.map(|r| format!("requires {r}")),
            ];
            let mut entry = format!("{}{metavar}: {}", row.name, row.help);
            for note in notes.into_iter().flatten() {
                entry = format!("{entry}; {note}");
            }
            wrap(&mut out, 8, &entry);
        }
        out += "\n";
    }
    out
}
