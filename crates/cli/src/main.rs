//! `gw2v` — the GraphWord2Vec command-line tool.
//!
//! ```text
//! gw2v generate  --out corpus.txt [--dataset 1-billion] [--scale tiny]
//!                [--seed 42] [--questions questions.txt]
//! gw2v phrases   --input corpus.txt --out phrased.txt [--threshold 100]
//! gw2v train     --input corpus.txt --out model.txt
//!                [--trainer seq|hogwild|hogbatch|batched|dist|threaded] [--hosts 8]
//!                [--dim 200] [--epochs 16] [--negative 15] [--window 5]
//!                [--alpha 0.025] [--combiner mc|avg|sum] [--plan opt|naive|pull]
//!                [--wire id-value|delta|quant] [--threads 4] [--seed 1] [--min-count 1]
//! gw2v corpus    graph --out graph.edges [--kind sbm|scale-free] [--nodes 240] [--seed 42]
//!                walks --edges graph.edges --out walks.txt [--walks 10] [--length 40]
//!                [--p 1.0] [--q 1.0] [--seed 1] [--holdout 0.2] [--holdout-seed 7]
//! gw2v eval      --model model.txt --questions questions.txt [--method cosadd|cosmul]
//! gw2v eval      linkpred --model model.txt --edges graph.edges --holdout 0.2
//!                [--negatives-per-edge 1] [--score dot|cosine] [--out report.json]
//! gw2v neighbors --model model.txt --word WORD [--k 10]
//! gw2v serve     (--model model.txt | --checkpoint DIR --vocab corpus.txt)
//!                [--queries FILE] [--out FILE] [--k 10] [--shards 8] [--batch 32]
//! ```

mod args;
mod commands;

use args::ArgError;

fn main() {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_else(|| "help".to_owned());
    let rest: Vec<String> = argv.collect();
    let result = match command.as_str() {
        "generate" => commands::generate(&rest),
        "phrases" => commands::phrases(&rest),
        "corpus" => commands::corpus(&rest),
        "train" => commands::train(&rest),
        "eval" => commands::eval(&rest),
        "neighbors" => commands::neighbors(&rest),
        "serve" => commands::serve(&rest),
        "help" | "--help" | "-h" => {
            print!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(ArgError(format!("unknown command {other:?}; run `gw2v help`")).into()),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
